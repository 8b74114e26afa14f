//go:build unix

package fleet

import "syscall"

// quiet reports whether an idle connection is fit for reuse: one
// non-blocking read that finds nothing. End of stream, a reset or bytes
// nobody asked for mean the next answer read off it could not be trusted.
func (pc *peerConn) quiet() bool {
	if pc.raw == nil {
		return true
	}
	if pc.readOne == nil {
		pc.readOne = func(fd uintptr) bool {
			_, pc.oneErr = syscall.Read(int(fd), pc.one[:])
			return true
		}
	}
	err := pc.raw.Read(pc.readOne)
	return err == nil && (pc.oneErr == syscall.EAGAIN || pc.oneErr == syscall.EWOULDBLOCK)
}
