package main

import (
	"context"
	"net"
	"sync/atomic"

	"whowas/internal/cloudapi"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// meteredCloud is the benchmark's transparent seam at cloudapi.Cloud.
// It forwards every call unchanged and counts and times the data-plane
// dials and the SetDay control calls; the connections it returns count
// their Read calls and bytes. It sits under the platform's fault layer
// (which wraps whatever cloud the platform holds), so it sees the
// dials that reach the cloud, retries included.
type meteredCloud struct {
	cloudapi.Cloud
	spans *spanRecorder

	dials     atomic.Int64
	dialTimes durations
	setDays   durations
	reads     atomic.Int64
	readBytes atomic.Int64
}

var _ cloudapi.Unwrapper = (*meteredCloud)(nil)

func newMeteredCloud(c cloudapi.Cloud, spans *spanRecorder) *meteredCloud {
	return &meteredCloud{Cloud: c, spans: spans}
}

// Unwrap exposes the wrapped cloud, so cloudapi.Sim and FeedsOf see
// through the seam.
func (c *meteredCloud) Unwrap() cloudapi.Cloud { return c.Cloud }

func (c *meteredCloud) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	sp := c.spans.start(ctx, "cloudapi.dial")
	conn, err := c.Cloud.DialContext(ctx, network, address)
	c.dialTimes.add(sp.end())
	c.dials.Add(1)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: conn, c: c}, nil
}

func (c *meteredCloud) SetDay(ctx context.Context, day int) error {
	sp := c.spans.start(nil, "cloudapi.set_day")
	err := c.Cloud.SetDay(ctx, day)
	c.setDays.add(sp.end())
	return err
}

// meteredConn counts the reads the platform makes on a cloud
// connection. Every other method, deadlines included, is the wrapped
// connection's.
type meteredConn struct {
	net.Conn
	c *meteredCloud
}

func (m *meteredConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	m.c.reads.Add(1)
	m.c.readBytes.Add(int64(n))
	return n, err
}

// meteredBackend is the benchmark's transparent seam at store.Backend:
// every method forwards to the wrapped backend and is timed.
type meteredBackend struct {
	store.Backend
	spans *spanRecorder

	appends, records, rewrites, histories durations
}

func newMeteredBackend(b store.Backend, spans *spanRecorder) *meteredBackend {
	return &meteredBackend{Backend: b, spans: spans}
}

func (b *meteredBackend) Append(meta store.RoundMeta, recs []*store.Record) error {
	sp := b.spans.start(nil, "store.append")
	err := b.Backend.Append(meta, recs)
	b.appends.add(sp.end())
	return err
}

func (b *meteredBackend) Meta(i int) (store.RoundMeta, error) {
	sp := b.spans.start(nil, "store.meta")
	m, err := b.Backend.Meta(i)
	sp.end()
	return m, err
}

func (b *meteredBackend) Records(i int) ([]*store.Record, error) {
	sp := b.spans.start(nil, "store.records")
	recs, err := b.Backend.Records(i)
	b.records.add(sp.end())
	return recs, err
}

func (b *meteredBackend) History(ip ipaddr.Addr) ([]*store.Record, error) {
	sp := b.spans.start(nil, "store.history")
	recs, err := b.Backend.History(ip)
	b.histories.add(sp.end())
	return recs, err
}

func (b *meteredBackend) Rewrite(i int, meta store.RoundMeta, recs []*store.Record) error {
	sp := b.spans.start(nil, "store.rewrite")
	err := b.Backend.Rewrite(i, meta, recs)
	b.rewrites.add(sp.end())
	return err
}
