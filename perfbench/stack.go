package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/server"
)

// stack is one serving stack under test: the DB, the server built with the
// prqserved default configuration, and its loopback listener.
type stack struct {
	db     *gaussrange.DB
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	walDir string // "" unless the workload attaches a wal
}

// serverConfig is the server.Config prqserved builds from its default flags.
func serverConfig(db *gaussrange.DB) server.Config {
	return server.Config{
		DB:           db,
		MaxInflight:  2 * runtime.GOMAXPROCS(0),
		MaxBatchSize: 1024,
		BatchWorkers: runtime.GOMAXPROCS(0),
	}
}

// dbOptions are the DB options prqserved builds from its default flags.
func dbOptions() []gaussrange.Option {
	return []gaussrange.Option{gaussrange.WithSeed(1), gaussrange.WithPlanCacheSize(gaussrange.DefaultPlanCacheSize)}
}

// newStack loads pts, starts the server on a loopback port and waits until
// it answers /healthz; with walDir set it attaches a fresh wal there (the
// default 2 ms commit window, fsync on).
func newStack(pts [][]float64, walDir string) (*stack, error) {
	db, err := gaussrange.Load(pts, dbOptions()...)
	if err != nil {
		return nil, fmt.Errorf("loading points: %w", err)
	}
	if walDir != "" {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		if _, err := db.AttachWAL(gaussrange.WALConfig{Dir: walDir}); err != nil {
			return nil, fmt.Errorf("attaching wal: %w", err)
		}
	}
	srv, err := server.New(serverConfig(db))
	if err != nil {
		db.DetachWAL()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.DetachWAL()
		return nil, err
	}
	s := &stack{
		db: db, srv: srv, walDir: walDir,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.New(s.url).Health(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return s, nil
}

// close stops the listener, waits for Serve to return and detaches the wal
// (draining its batcher). The wal directory is left for the durability check.
func (s *stack) close() error {
	err := s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if werr := s.db.DetachWAL(); werr != nil && err == nil {
		err = werr
	}
	return err
}

// heapBytes returns the live heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fsName names the filesystem holding dir, from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
		0xF2F52010: "f2fs", 0x858458F6: "ramfs", 0x5346544E: "ntfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
