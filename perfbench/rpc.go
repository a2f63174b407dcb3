package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"eel/internal/daemon"
	"eel/internal/obs"
)

// flightTraces sizes the traced daemon's flight recorder: it must hold
// every request and batch trace of one traced segment, which is read out
// right after the segment ends.
const flightTraces = 16384

// daemonHarness is an in-process daemon with cmd/eeld's default
// configuration (the zero daemon.Config fields are eeld's flag defaults)
// behind a loopback listener, and a keep-alive client that opens at most
// conns connections to it.
type daemonHarness struct {
	srv    *daemon.Server
	hs     *http.Server
	base   string
	client *http.Client
	flight *obs.Flight
	served chan error
}

func bootDaemon(traced bool, conns int) (*daemonHarness, error) {
	d := &daemonHarness{served: make(chan error, 1)}
	if traced {
		d.flight = obs.NewFlight(flightTraces)
	}
	d.srv = daemon.New(daemon.Config{Registry: obs.NewRegistry(), Flight: d.flight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return d, nil
}

// post sends one request and returns the body of a 200 response.
func (d *daemonHarness) post(path string, body []byte) ([]byte, error) {
	resp, err := d.client.Post(d.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %d %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// tracesIn returns the recorded traces that started inside [from, to].
func (d *daemonHarness) tracesIn(from, to time.Time) []*obs.TraceExport {
	var out []*obs.TraceExport
	for _, e := range d.flight.Snapshot() {
		if e.StartUnixNs >= from.UnixNano() && e.StartUnixNs <= to.UnixNano() {
			out = append(out, e)
		}
	}
	return out
}

// close drains the daemon the way cmd/eeld does on SIGTERM and waits for
// its serving goroutine to return.
func (d *daemonHarness) close() error {
	if d == nil {
		return nil
	}
	d.srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if _, derr := d.srv.Drain(); derr != nil {
		err = errors.Join(err, derr)
	}
	d.client.CloseIdleConnections()
	return err
}

// rpcDaemons holds the workload's daemons: one untraced, plus a traced
// twin in a traced run so that segments can alternate between them.
type rpcDaemons struct {
	plain, traced *daemonHarness
}

func (r *rpcDaemons) boot(traced bool, conns int, l *setupLayers) error {
	err := l.time(&l.boot, func() (err error) {
		r.plain, err = bootDaemon(false, conns)
		return err
	})
	if err != nil || !traced {
		return err
	}
	r.traced, err = bootDaemon(true, conns)
	return err
}

// each lists the booted daemons, untraced first.
func (r *rpcDaemons) each() []*daemonHarness {
	if r.traced == nil {
		return []*daemonHarness{r.plain}
	}
	return []*daemonHarness{r.plain, r.traced}
}

func (r *rpcDaemons) pick(traced bool) *daemonHarness {
	if traced {
		return r.traced
	}
	return r.plain
}

func (r *rpcDaemons) close() error {
	return errors.Join(r.plain.close(), r.traced.close())
}
