package harness

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// selfCPU is the harness process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat's utime and stime: USER_HZ,
// which Linux fixes at 100 on every architecture.
const clockTick = 10 * time.Millisecond

// procCPU is process pid's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: utime %q stime %q", pid, f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rssAnonMB is the anonymous resident memory of pid (0: this process) in
// MB. The pools are file-backed, so this is the volatile footprint: Go
// heap, mirrors, caches. 0 if the kernel does not report it.
func rssAnonMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	i := bytes.Index(raw, []byte("RssAnon:"))
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(raw[i+len("RssAnon:"):]))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// PoolDir is a directory holding the stack's pool file. The file is a
// link to an anonymous memory file (memfd) owned by the harness, so pool
// pages are plain shared memory, as on tmpfs: the kernel's write-back and
// the filesystem's journal never enter a timing, nothing outside the
// checkout is written, and a SIGKILLed server's pool survives it. Where
// memfd is not available the pool is a regular file in the directory.
type PoolDir struct {
	Dir string
	mem *os.File
}

// NewPoolDir creates dir with an empty pool file in it.
func NewPoolDir(dir string) (*PoolDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &PoolDir{Dir: dir, mem: memfd("jbench-pool")}
	if p.mem != nil {
		link := fmt.Sprintf("/proc/%d/fd/%d", os.Getpid(), p.mem.Fd())
		if err := os.Symlink(link, p.path()); err != nil {
			p.mem.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *PoolDir) path() string { return filepath.Join(p.Dir, PoolFile) }

// Remove releases the pool's memory and deletes the directory.
func (p *PoolDir) Remove() error {
	if p.mem != nil {
		p.mem.Close()
	}
	return os.RemoveAll(p.Dir)
}

// memfdNumber is memfd_create's system call number; package syscall's
// tables predate the call on amd64.
var memfdNumber = map[string]uintptr{"amd64": 319, "arm64": 279}

func memfd(name string) *os.File {
	nr, ok := memfdNumber[runtime.GOARCH]
	if !ok || runtime.GOOS != "linux" {
		return nil
	}
	cname, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil
	}
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(cname)), 0, 0)
	if errno != 0 {
		return nil
	}
	return os.NewFile(fd, name)
}

// Image is a copy of a pool file, kept in memory with all-zero stretches
// left out (a pool is mostly untouched space).
type Image struct {
	size   int64
	chunks []imageChunk
}

type imageChunk struct {
	off  int64
	data []byte
}

const imageChunkSize = 1 << 20

var zeroChunk = make([]byte, imageChunkSize)

// Capture copies the pool aside. After an embedded crash the pool is
// still mapped by the abandoned stack; a shared mapping and the file are
// one set of pages, so the copy sees every store made so far.
func (p *PoolDir) Capture() (*Image, error) {
	f, err := os.Open(p.path())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img := &Image{}
	buf := make([]byte, imageChunkSize)
	for {
		n, err := io.ReadFull(f, buf)
		if n > 0 && !bytes.Equal(buf[:n], zeroChunk[:n]) {
			img.chunks = append(img.chunks, imageChunk{img.size, buf[:n]})
			buf = make([]byte, imageChunkSize)
		}
		img.size += int64(n)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if img.size == 0 {
		return nil, fmt.Errorf("pool %s is empty", p.path())
	}
	return img, nil
}

// Restore creates a pool directory dir holding a copy of the image.
func (img *Image) Restore(dir string) (*PoolDir, error) {
	p, err := NewPoolDir(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p.path(), os.O_RDWR|os.O_CREATE, 0o644)
	if err == nil {
		err = f.Truncate(img.size)
		for _, c := range img.chunks {
			if err != nil {
				break
			}
			_, err = f.WriteAt(c.data, c.off)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		p.Remove()
		return nil, err
	}
	return p, nil
}

// pinThread locks the calling goroutine to its OS thread and that thread
// to the highest-numbered CPU it may run on, and returns the undo. The
// embedded client runs pinned: migrating between the two cores costs it
// its L2 contents, and chunks that migrated read up to a third slower
// than their neighbours. The runtime's other threads (GC workers) stay
// free to use either core. Where the affinity calls fail the goroutine
// just runs unpinned.
func pinThread() (unpin func()) {
	runtime.LockOSThread()
	var old, one [16]uint64 // 1024 CPUs
	size := unsafe.Sizeof(old)
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&old)))
	if errno != 0 {
		return runtime.UnlockOSThread
	}
	for w := int(n)/8 - 1; w >= 0; w-- {
		if old[w] != 0 {
			one[w] = 1 << (63 - bits.LeadingZeros64(old[w]))
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&one))); errno != 0 {
		return runtime.UnlockOSThread
	}
	return func() {
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&old)))
		runtime.UnlockOSThread()
	}
}
