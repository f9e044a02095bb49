package ycsb

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/store"
)

// DB is the key-value interface the driver exercises; *store.Grid
// implements it directly.
type DB interface {
	Read(key string, consume func(name string, value []byte)) error
	Update(key string, fields []store.Field) error
	Insert(key string, rec *store.Record) error
	ReadModifyWrite(key string, mutate func(rec *store.Record) []store.Field) error
}

// ScanDB is the optional capability workload E needs (ordered backends).
type ScanDB interface {
	Scan(start string, limit int, consume func(key, field string, value []byte)) error
}

// Load executes the YCSB load phase: RecordCount inserts spread over the
// configured threads.
func Load(db DB, cfg Config) error {
	cfg = cfg.Defaults()
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.RecordCount {
					return
				}
				if err := db.Insert(Key(i), cfg.BuildRecord(i)); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// Run executes the YCSB run phase and returns merged statistics.
func Run(db DB, cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	if p := cfg.ReadProp + cfg.UpdateProp + cfg.InsertProp + cfg.RMWProp + cfg.ScanProp; p < 0.999 || p > 1.001 {
		return nil, fmt.Errorf("ycsb: op proportions sum to %v", p)
	}
	if cfg.ScanProp > 0 {
		if _, ok := db.(ScanDB); !ok {
			return nil, fmt.Errorf("ycsb: workload has scans but the DB does not implement ScanDB")
		}
	}

	// Keys [0, inserted) exist: the latest and uniform choosers draw from
	// that range. Insert indices come from nextInsert, and inserted moves
	// past an index only after its Insert has returned and every lower
	// index has been published, so no thread is handed a key that is not
	// there yet.
	inserted, nextInsert := &atomic.Int64{}, &atomic.Int64{}
	inserted.Store(int64(cfg.RecordCount))
	nextInsert.Store(int64(cfg.RecordCount))
	chooser, err := newChooser(cfg, inserted)
	if err != nil {
		return nil, err
	}

	type threadStats struct {
		perOp map[OpType]*Histogram
		errs  uint64
	}
	stats := make([]threadStats, cfg.Threads)
	opsPerThread := cfg.Operations / cfg.Threads

	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
			st := threadStats{perOp: map[OpType]*Histogram{}}
			hist := func(op OpType) *Histogram {
				h := st.perOp[op]
				if h == nil {
					h = &Histogram{}
					st.perOp[op] = h
				}
				return h
			}
			// Per-thread scratch so the hot loop allocates nothing: keys
			// render into a reused buffer (every retention point in the
			// store clones transient keys), updates reuse one field slot
			// and value buffer (every backend copies on update), and the
			// rmw closure is built once, not per operation.
			keyBuf := make([]byte, 0, 16)
			key := func(i int) string {
				keyBuf = appendKey(keyBuf, i)
				return unsafe.String(&keyBuf[0], len(keyBuf))
			}
			var updSlot [1]store.Field
			updVal := make([]byte, cfg.FieldLen)
			var rmwFields []store.Field
			rmwMutate := func(*store.Record) []store.Field { return rmwFields }
			noopConsume := func(string, []byte) {}
			for i := 0; i < opsPerThread; i++ {
				op := chooseOp(cfg, rng)
				t0 := time.Now()
				var err error
				var idx int64 // OpInsert: the index this operation inserts
				switch op {
				case OpRead:
					err = db.Read(key(chooser.Next(rng)), noopConsume)
				case OpUpdate:
					rec := chooser.Next(rng)
					fields := cfg.updateFieldsInto(rng, rec, i+1, updSlot[:], updVal)
					err = db.Update(key(rec), fields)
				case OpInsert:
					idx = nextInsert.Add(1) - 1
					err = db.Insert(Key(int(idx)), cfg.BuildRecord(int(idx)))
				case OpRMW:
					rec := chooser.Next(rng)
					rmwFields = cfg.updateFieldsInto(rng, rec, i+1, updSlot[:], updVal)
					err = db.ReadModifyWrite(key(rec), rmwMutate)
				case OpScan:
					start := Key(chooser.Next(rng))
					n := 1 + rng.Intn(cfg.MaxScanLen)
					err = db.(ScanDB).Scan(start, n, func(string, string, []byte) {})
				}
				hist(op).Record(time.Since(t0))
				if err != nil {
					st.errs++
				}
				if op == OpInsert {
					// Outside the timed section: waits out the inserts of
					// lower indices still in flight on other threads.
					for !inserted.CompareAndSwap(idx, idx+1) {
						runtime.Gosched()
					}
				}
			}
			stats[t] = st
		}(t)
	}
	wg.Wait()

	res := &Result{
		Workload: cfg.Name,
		Duration: time.Since(start),
		PerOp:    map[OpType]*Histogram{},
	}
	for _, st := range stats {
		res.Errors += st.errs
		for op, h := range st.perOp {
			if res.PerOp[op] == nil {
				res.PerOp[op] = &Histogram{}
			}
			res.PerOp[op].Merge(h)
			res.Operations += h.Count()
		}
	}
	return res, nil
}

func newChooser(cfg Config, inserted *atomic.Int64) (KeyChooser, error) {
	switch cfg.Distribution {
	case "zipfian":
		return NewScrambledZipfian(cfg.RecordCount), nil
	case "latest":
		return NewLatest(inserted), nil
	case "uniform":
		return NewUniform(inserted), nil
	default:
		return nil, fmt.Errorf("ycsb: unknown distribution %q", cfg.Distribution)
	}
}

func chooseOp(cfg Config, rng *rand.Rand) OpType {
	p := rng.Float64()
	switch {
	case p < cfg.ReadProp:
		return OpRead
	case p < cfg.ReadProp+cfg.UpdateProp:
		return OpUpdate
	case p < cfg.ReadProp+cfg.UpdateProp+cfg.InsertProp:
		return OpInsert
	case p < cfg.ReadProp+cfg.UpdateProp+cfg.InsertProp+cfg.RMWProp:
		return OpRMW
	default:
		return OpScan
	}
}
