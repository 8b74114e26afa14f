//go:build !unix

package fleet

// quiet cannot look at the descriptor here: a connection closed while idle
// fails at the write (and is re-sent) or at the read (a forward error).
func (pc *peerConn) quiet() bool { return true }
