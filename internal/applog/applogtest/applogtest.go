// Package applogtest is an applog.FS over the real file system whose
// operations fail on demand, for the fault tests of applog and of the
// packages that write through it.
package applogtest

import (
	"errors"
	"io/fs"
	"strings"
	"sync"

	"raqo/internal/applog"
)

// ErrInjected is the error every injected fault returns.
var ErrInjected = errors.New("applogtest: injected fault")

// Faults says which operations fail. The zero value fails nothing.
type Faults struct {
	// Match limits the faults to paths containing it; "" matches every
	// path.
	Match string
	// Write fails every write, after it puts down its first Keep bytes
	// (a short write; 0 is a plain write error).
	Write bool
	Keep  int
	// Truncate, Close, Open, Rename and Remove fail those operations.
	Truncate, Close, Open, Rename, Remove bool
}

// FS is an applog.FS that applies the Faults set last. Safe for
// concurrent use.
type FS struct {
	mu sync.Mutex
	f  Faults // guarded by mu
}

// Set replaces the faults in force.
func (x *FS) Set(f Faults) {
	x.mu.Lock()
	x.f = f
	x.mu.Unlock()
}

// on returns the faults in force for path: none when it does not match.
func (x *FS) on(path string) Faults {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !strings.Contains(path, x.f.Match) {
		return Faults{}
	}
	return x.f
}

// OpenFile implements applog.FS.
func (x *FS) OpenFile(name string, flag int, perm fs.FileMode) (applog.File, error) {
	if x.on(name).Open {
		return nil, ErrInjected
	}
	f, err := applog.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: x, name: name}, nil
}

// Rename implements applog.FS; Match applies to oldpath.
func (x *FS) Rename(oldpath, newpath string) error {
	if x.on(oldpath).Rename {
		return ErrInjected
	}
	return applog.OS.Rename(oldpath, newpath)
}

// Remove implements applog.FS.
func (x *FS) Remove(name string) error {
	if x.on(name).Remove {
		return ErrInjected
	}
	return applog.OS.Remove(name)
}

// file is an open file whose operations consult its FS's faults. A
// faulty Close still closes the file.
type file struct {
	applog.File
	fs   *FS
	name string
}

func (f *file) Write(p []byte) (int, error) {
	fl := f.fs.on(f.name)
	if !fl.Write {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:min(fl.Keep, len(p))])
	if err == nil {
		err = ErrInjected
	}
	return n, err
}

func (f *file) Truncate(size int64) error {
	if f.fs.on(f.name).Truncate {
		return ErrInjected
	}
	return f.File.Truncate(size)
}

func (f *file) Close() error {
	err := f.File.Close()
	if f.fs.on(f.name).Close {
		return ErrInjected
	}
	return err
}
