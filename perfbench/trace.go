package main

import (
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvbp/internal/vfs"
)

// tracer collects spans at the layer boundaries the benchmark can reach
// from outside the program: the server's http.Handler and the server.Limits
// FS seam. Spans stay in memory and are analysed when the run ends. Nothing
// is recorded unless on is set, and the orchestrator flips on only while no
// request is in flight.
type tracer struct {
	on     atomic.Bool
	closed atomic.Bool // the closed loop is running

	mu       sync.Mutex
	handlers []handlerSpan
	fsyncs   []fsyncSpan
	snaps    []time.Duration
	snapOpen map[string]time.Time // temp snapshot file → creation time
	// connOf names the load connection behind a RemoteAddr: its index and
	// the server start it was opened for (loadClient.connOf).
	connOf  func(remote string) ([2]int, bool)
	perConn map[[2]int]int // load connection → requests seen while tracing

	written  atomic.Int64 // bytes written through File.Write while tracing
	readFile atomic.Int64 // bytes returned by ReadFile, always counted
}

type handlerSpan struct {
	conn       [2]int // load connection and server start; valid if known
	known      bool
	seq        int // request count on this connection while tracing
	tenant     string
	read       bool // GET on a tenant (status or placements)
	place      bool
	closed     bool // sent by the closed loop
	start, end time.Time
	respBytes  int
}

type fileKind uint8

const (
	kindOps fileKind = iota
	kindWAL
	kindSnap
	kindDir
	kindOther
)

var kindNames = [...]string{"ops", "wal", "snap", "dir"}

type fsyncSpan struct {
	tenant     string
	kind       fileKind
	start, end time.Time
}

func newTracer() *tracer {
	return &tracer{snapOpen: map[string]time.Time{}, perConn: map[[2]int]int{}}
}

// handler wraps the server's http.Handler with a span per request.
func (tr *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		// Paths are /v1/tenants/{name}[/place|/advance|/placements].
		parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/tenants/"), "/")
		sp := handlerSpan{
			tenant: parts[0], start: start, end: end, respBytes: cw.n, closed: tr.closed.Load(),
			read:  r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/tenants/"),
			place: len(parts) == 2 && parts[1] == "place",
		}
		tr.mu.Lock()
		if tr.connOf != nil {
			sp.conn, sp.known = tr.connOf(r.RemoteAddr)
		}
		if sp.known {
			sp.seq = tr.perConn[sp.conn]
			tr.perConn[sp.conn]++
		}
		tr.handlers = append(tr.handlers, sp)
		tr.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// traceFS is the vfs.FS the traced run hands to server.Limits.FS: the real
// filesystem, with fsyncs timed and attributed to a tenant and file kind,
// written bytes counted, and snapshot writes timed from temp-file creation
// to the rename that publishes them.
type traceFS struct {
	vfs.FS
	root string
	tr   *tracer
}

func (f *traceFS) classify(name string) (tenant string, kind fileKind) {
	rel, err := filepath.Rel(f.root, name)
	if err != nil {
		return "", kindOther
	}
	parts := strings.Split(rel, string(filepath.Separator))
	if len(parts) != 2 {
		return "", kindOther
	}
	switch base := parts[1]; {
	case strings.HasPrefix(base, "ops.dvbp"):
		return parts[0], kindOps
	case strings.HasPrefix(base, "wal.dvbp"):
		return parts[0], kindWAL
	case strings.HasPrefix(base, "snap-"):
		return parts[0], kindSnap
	}
	return parts[0], kindOther
}

func (f *traceFS) wrap(file vfs.File) vfs.File {
	tenant, kind := f.classify(file.Name())
	return &traceFile{File: file, fs: f, tenant: tenant, kind: kind}
}

// OpenFile implements vfs.FS.
func (f *traceFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f.wrap(file), nil
}

// CreateTemp implements vfs.FS.
func (f *traceFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if f.tr.on.Load() && strings.HasPrefix(pattern, "snap-") {
		f.tr.mu.Lock()
		f.tr.snapOpen[file.Name()] = time.Now()
		f.tr.mu.Unlock()
	}
	return f.wrap(file), nil
}

// ReadFile implements vfs.FS.
func (f *traceFS) ReadFile(name string) ([]byte, error) {
	b, err := f.FS.ReadFile(name)
	f.tr.readFile.Add(int64(len(b)))
	return b, err
}

// Rename implements vfs.FS.
func (f *traceFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.tr.mu.Lock()
	if t0, ok := f.tr.snapOpen[oldpath]; ok {
		delete(f.tr.snapOpen, oldpath)
		if err == nil {
			f.tr.snaps = append(f.tr.snaps, time.Since(t0))
		}
	}
	f.tr.mu.Unlock()
	return err
}

// SyncDir implements vfs.FS.
func (f *traceFS) SyncDir(dir string) error {
	if !f.tr.on.Load() {
		return f.FS.SyncDir(dir)
	}
	tenant := ""
	if rel, err := filepath.Rel(f.root, dir); err == nil && rel != "." && !strings.Contains(rel, string(filepath.Separator)) {
		tenant = rel
	}
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.tr.addFsync(fsyncSpan{tenant: tenant, kind: kindDir, start: start, end: time.Now()})
	return err
}

func (tr *tracer) addFsync(sp fsyncSpan) {
	tr.mu.Lock()
	tr.fsyncs = append(tr.fsyncs, sp)
	tr.mu.Unlock()
}

type traceFile struct {
	vfs.File
	fs     *traceFS
	tenant string
	kind   fileKind
}

// Write implements vfs.File.
func (f *traceFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.fs.tr.on.Load() {
		f.fs.tr.written.Add(int64(n))
	}
	return n, err
}

// Sync implements vfs.File.
func (f *traceFile) Sync() error {
	if !f.fs.tr.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.fs.tr.addFsync(fsyncSpan{tenant: f.tenant, kind: f.kind, start: start, end: time.Now()})
	return err
}
