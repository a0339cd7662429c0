//go:build !unix

package proto

import "net"

// idleCheck has no portable non-blocking read to make here; a dead
// connection is found by the call that fails on it.
type idleCheck struct{ conn net.Conn }

func newIdleCheck(conn net.Conn) *idleCheck { return &idleCheck{conn: conn} }

func (*idleCheck) check() error { return nil }
