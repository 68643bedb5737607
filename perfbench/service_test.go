package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestServiceNon2xxCountsAsFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"service is draining"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	f := &fleet{base: ts.URL, client: ts.Client()}
	led := &ledger{}
	r := &svcRun{seed: defaultSeed, led: led}
	expected := make([][]byte, len(svcVariants))
	lat := r.client(context.Background(), f, "round-0.0", -1, expected, []byte("{}"))

	attempted, failed := led.counts()
	if want := 3 * svcIterations; attempted != want || failed != want {
		t.Errorf("attempted %d failed %d, want every one of %d requests failed", attempted, failed, want)
	}
	if n := len(lat["service.submit"]); n != svcIterations {
		t.Errorf("%d submit latencies, want %d", n, svcIterations)
	}
}

func TestServiceAcceptsOnly2xx(t *testing.T) {
	for _, code := range []int{http.StatusOK, http.StatusAccepted, http.StatusNotFound, http.StatusInternalServerError} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
		}))
		f := &fleet{base: ts.URL, client: ts.Client()}
		_, _, err := f.call(context.Background(), http.MethodGet, "/healthz", nil)
		ts.Close()
		if ok := code < 300; (err == nil) != ok {
			t.Errorf("status %d: err = %v", code, err)
		}
	}
}
