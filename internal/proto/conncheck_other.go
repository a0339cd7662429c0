//go:build !unix

package proto

import "net"

// connCheck has no portable non-blocking read to make here; a dead
// connection is found by the call that fails on it.
func connCheck(net.Conn) error { return nil }
