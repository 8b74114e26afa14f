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
	var rerr error
	err := pc.raw.Read(func(fd uintptr) bool {
		_, rerr = syscall.Read(int(fd), make([]byte, 1))
		return true
	})
	return err == nil && (rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK)
}
