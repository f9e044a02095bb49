package jnvm_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	jnvm "repro"
)

// check stands in for an application's error handling.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// simple is the paper's Simple class (Figure 3): a persistent counter x, a
// persistent reference to a message, and a transient y that lives only in
// the proxy.
type simple struct {
	*jnvm.Object
	y int
}

const (
	offX   = 0 // int64
	offMsg = 8 // ref to a PString
)

func simpleClass() *jnvm.Class {
	return &jnvm.Class{
		Name:    "example.Simple",
		Factory: func(o *jnvm.Object) jnvm.PObject { return &simple{Object: o} },
		Refs:    func(*jnvm.Object) []uint64 { return []uint64{offMsg} },
	}
}

// newSimple is the constructor discipline of Figure 4: allocate, set the
// fields, write them back; the caller publishes, which validates and fences.
func newSimple(db *jnvm.DB, x int64, msg string) *simple {
	po, err := db.Alloc(db.MustClass("example.Simple"), 16)
	check(err)
	s := po.(*simple)
	s.WriteInt64(offX, x)
	m, err := jnvm.NewString(db, msg)
	check(err)
	m.Validate()
	s.WriteRef(offMsg, m.Ref())
	s.PWB()
	return s
}

// Figure 3: a Simple object bound to a named root survives a restart of
// its file-backed heap, and replacing it frees the old object and its
// message explicitly.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "jnvm-simple")
	check(err)
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "simple.pmem")
	for run := 0; run < 2; run++ {
		// JNVM.init("/mnt/pmem/simple", ...)
		db, err := jnvm.Open(jnvm.Options{Path: path, Size: 8 << 20, Classes: []*jnvm.Class{simpleClass()}})
		check(err)
		// if (!JNVM.root.exists("simple")) JNVM.root.put("simple", new Simple(42))
		if !db.Root().Exists("simple") {
			check(db.Root().Put("simple", newSimple(db, 42, "Hello, NVMM!")))
		}
		po, err := db.Root().Get("simple")
		check(err)
		s := po.(*simple)
		s.WriteInt64(offX, s.ReadInt64(offX)+1)
		s.PWBField(offX, 8)
		s.PSync()
		fmt.Printf("x = %d, y = %d\n", s.ReadInt64(offX), s.y)
		s.y = 7 // a transient write: gone at the next open
		if run == 1 {
			msg, err := db.Resurrect(s.ReadRef(offMsg))
			check(err)
			fmt.Println("msg =", msg.(*jnvm.PString).Value())
			check(db.Root().Put("simple", newSimple(db, 24, "recycled!")))
			db.Free(msg) // JNVM.free(s.msg)
			db.Free(s)   // JNVM.free(s)
			db.PSync()
		}
		check(db.Close())
	}
	// Output:
	// x = 43, y = 0
	// x = 44, y = 0
	// msg = Hello, NVMM!
}

// The TPC-B-like transfers of §5.3.3 run as failure-atomic blocks. A
// power failure in the middle of a transfer, between its debit and its
// credit, loses no money: recovery discards or replays the whole block.
func ExampleOpenPool() {
	const accounts, each, transfers = 1000, 1000, 2000
	account := func() []*jnvm.Class {
		return []*jnvm.Class{{Name: "example.Account", Factory: func(o *jnvm.Object) jnvm.PObject { return o }}}
	}
	total := func(db *jnvm.DB, arr *jnvm.PRefArray) (sum int64) {
		for i := 0; i < accounts; i++ {
			sum += db.Inspect(arr.GetRef(i)).ReadInt64(0)
		}
		return sum
	}

	// move changes an account's balance by d inside a block.
	move := func(tx *jnvm.Tx, acct *jnvm.Object, d int64) error {
		b, err := tx.ReadInt64(acct, 0)
		if err != nil {
			return err
		}
		return tx.WriteInt64(acct, 0, b+d)
	}

	pool := jnvm.NewTrackedPool(16 << 20)
	// The setup block logs one allocation per account.
	db, err := jnvm.OpenPool(pool, jnvm.Options{Classes: account(), LogSlotSize: 1 << 17})
	check(err)
	arr, err := jnvm.NewRefArray(db, accounts)
	check(err)
	check(db.RunFA(func(tx *jnvm.Tx) (err error) {
		for i := 0; i < accounts && err == nil; i++ {
			var po jnvm.PObject
			if po, err = tx.Alloc(db.MustClass("example.Account"), 8); err == nil {
				po.Core().WriteInt64(0, each)
				err = tx.WriteRef(arr.Core(), uint64(i)*8, po.Core().Ref())
			}
		}
		return err
	}))
	arr.PWB() // the slot writes were direct: arr was not yet published
	check(db.Root().Put("accounts", arr))

	rng := rand.New(rand.NewSource(1))
	var img *jnvm.Pool
	for i := 0; i < transfers; i++ {
		from, to := db.Inspect(arr.GetRef(rng.Intn(accounts))), db.Inspect(arr.GetRef(rng.Intn(accounts)))
		amount := int64(rng.Intn(100))
		check(db.RunFA(func(tx *jnvm.Tx) error {
			if err := move(tx, from, -amount); err != nil {
				return err
			}
			if i == transfers/2 {
				img = jnvm.CrashImageStrict(pool) // debited, not yet credited
			}
			return move(tx, to, amount)
		}))
	}
	fmt.Println("total after the transfers:", total(db, arr))
	check(db.Close())

	db, err = jnvm.OpenPool(img, jnvm.Options{Classes: account(), LogSlotSize: 1 << 17})
	check(err)
	defer db.Close()
	po, err := db.Root().Get("accounts")
	check(err)
	fmt.Println("total after the crash:", total(db, po.(*jnvm.PRefArray)))
	// Output:
	// total after the transfers: 1000000
	// total after the crash: 1000000
}

// A map with a red-black-tree mirror keeps its bindings ordered: Ascend
// visits them in key order, whether they were put directly or inside a
// failure-atomic block.
func ExampleNewMap() {
	db, err := jnvm.Open(jnvm.Options{Size: 8 << 20})
	check(err)
	defer db.Close()
	m, err := jnvm.NewMap(db, jnvm.MirrorTree)
	check(err)
	check(db.Root().Put("kv", m))
	for _, kv := range [][2]string{{"paper", "J-NVM"}, {"venue", "SOSP"}, {"lang", "Go"}} {
		v, err := jnvm.NewBytes(db, []byte(kv[1]))
		check(err)
		check(m.Put(kv[0], v))
	}
	check(db.RunFA(func(tx *jnvm.Tx) error {
		v, err := jnvm.NewStringTx(tx, "2021")
		if err != nil {
			return err
		}
		return m.PutTx(tx, "year", v)
	}))
	m.Delete("venue") // explicit deletion frees the binding's value
	db.PSync()
	check(m.Ascend("", func(key string, val jnvm.PObject) bool {
		if v, ok := val.(*jnvm.PString); ok {
			fmt.Printf("%s = %q\n", key, v.Value())
		} else {
			fmt.Printf("%s = %s\n", key, val.(*jnvm.PBytes).Value())
		}
		return true
	}))
	// Output:
	// lang = Go
	// paper = J-NVM
	// year = "2021"
}
