package service

import (
	"fmt"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
)

// ShopClient is the typed Go client for a VMShop daemon — what
// cmd/vmctl and programs drive a shop with. It makes RemotePlant's
// calls on one connection of its own, so idempotent requests (query,
// ping) ride DefaultRetry and mutating kinds are never retransmitted;
// it is safe for concurrent use.
type ShopClient struct {
	rp RemotePlant
}

// DialShop connects to a VMShop daemon.
func DialShop(addr string, timeout time.Duration) (*ShopClient, error) {
	sc := &ShopClient{rp: RemotePlant{Addr: addr, Timeout: timeout, down: shop.ErrShopDown, unchecked: true}}
	sc.rp.mu.Lock()
	err := sc.rp.connect()
	sc.rp.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// Close releases the connection.
func (sc *ShopClient) Close() error {
	sc.rp.Close()
	return nil
}

// Ping probes the daemon's liveness and returns the shop's name.
func (sc *ShopClient) Ping() (string, error) { return sc.rp.ping() }

// Create submits a creation request and returns the assigned VMID with
// the resulting classad.
func (sc *ShopClient) Create(spec *core.Spec) (core.VMID, *classad.Ad, error) {
	if err := spec.Validate(); err != nil {
		return "", nil, err
	}
	return sc.rp.create(nil, "", spec)
}

// Query fetches an active VM's classad.
func (sc *ShopClient) Query(id core.VMID) (*classad.Ad, error) {
	ad, found, err := sc.rp.Query(nil, id)
	return ad, notFound(id, found, err)
}

// Destroy collects an active VM.
func (sc *ShopClient) Destroy(id core.VMID) error {
	found, err := sc.rp.Collect(nil, id)
	return notFound(id, found, err)
}

// notFound is the error a client gets for a VM the shop does not know.
func notFound(id core.VMID, found bool, err error) error {
	if err == nil && !found {
		return fmt.Errorf("service: VM %s not found", id)
	}
	return err
}

// Lifecycle suspends or resumes an active VM (op is
// proto.LifecycleSuspend or proto.LifecycleResume) and returns the state
// it is in afterwards.
func (sc *ShopClient) Lifecycle(id core.VMID, op string) (string, error) {
	return sc.rp.lifecycle(nil, id, op)
}

// Suspend parks an active VM.
func (sc *ShopClient) Suspend(id core.VMID) error {
	return sc.rp.Lifecycle(nil, id, proto.LifecycleSuspend)
}

// Resume wakes a suspended VM.
func (sc *ShopClient) Resume(id core.VMID) error {
	return sc.rp.Lifecycle(nil, id, proto.LifecycleResume)
}

// Publish checkpoints an active VM into the warehouse as a new golden
// image.
func (sc *ShopClient) Publish(id core.VMID, image string) error {
	return sc.rp.Publish(nil, id, image)
}
