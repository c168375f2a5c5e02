package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"ctxmatch"
	"ctxmatch/internal/service"
)

// served is one in-process ctxmatchd handler stack on a loopback
// listener.
type served struct {
	srv  *service.Server
	hs   *http.Server
	done chan struct{}
	url  string
}

// newServer builds a Server the way ctxmatchd does — a default Matcher
// and the default MaxInFlight — with enough catalog slots that LRU
// eviction never fires and rate limiting off. Request logs are
// formatted as in production and discarded.
func newServer(catalogs int, storeDir string) (*service.Server, error) {
	m, err := ctxmatch.New()
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{
		Matcher:     m,
		MaxCatalogs: catalogs,
		SnapshotDir: storeDir,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// listen serves h on a fresh loopback listener.
func listen(srv *service.Server, h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	s := &served{srv: srv, hs: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener and waits for the serving goroutine.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.done
}

// setup takes the server from empty to ready: a new Server, a
// listener, and a PUT of every roster catalog over HTTP (Prepare,
// install and, with a store directory, the eager snapshot persist).
// wrap, when non-nil, wraps the handler (the traced run's timer).
func setup(in *inputs, client *http.Client, storeDir string, wrap func(http.Handler) http.Handler) (*served, time.Duration, error) {
	start := time.Now()
	srv, err := newServer(len(in.plan.Roster), storeDir)
	if err != nil {
		return nil, 0, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s, err := listen(srv, h)
	if err != nil {
		return nil, 0, err
	}
	for i, c := range in.plan.Roster {
		status, body, err := send(client, "PUT", s.url+"/v1/catalogs/"+c.Name, in.catalogDocs[i])
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("PUT %s: %w", c.Name, err)
		}
	}
	return s, time.Since(start), nil
}

// send issues one request and reads the whole response.
func send(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// newClient returns a client that holds at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
