package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/ast"
	"repro/internal/core"
)

// Changefeed subscriptions: a tenant's materialized output, maintained
// incrementally across mutation batches (core.View over eval's
// counting/DRed maintenance), streamed as ordered diff frames over chunked
// NDJSON.
//
// One liveView exists per (tenant, program version) with at least one past
// subscriber: the first subscription materializes the view from the
// tenant's latest database version, and every later mutation batch applies
// through it under the entry lock — so frame order is mutation order, and
// the seq numbers of one view's frames have no gaps. Subscribers are
// buffered channels; a subscriber whose buffer is full when a frame fans
// out is dropped with a typed slow_consumer error frame rather than letting
// one stalled reader block the entry lock or grow queues without bound.

// subscriberBuffer is the per-subscriber frame buffer: how many undelivered
// diff frames a consumer may fall behind before it is dropped.
const subscriberBuffer = 16

// viewFrame is one NDJSON changefeed frame. The first frame of every
// subscription is a snapshot (the full materialized output, sorted);
// subsequent frames carry the exact net output diff of one mutation batch
// in canonical order. Seq increments per applied batch on the view,
// DBVersion is the tenant database version the frame reflects.
type viewFrame struct {
	Seq       uint64   `json:"seq"`
	DBVersion int      `json:"db_version"`
	Snapshot  bool     `json:"snapshot,omitempty"`
	Facts     []string `json:"facts,omitempty"`
	Added     []string `json:"added,omitempty"`
	Removed   []string `json:"removed,omitempty"`
}

// liveView is one maintained materialization feeding subscribers: the
// per-tenant incremental counterpart of a programVersion. Guarded by the
// entry mutex.
type liveView struct {
	pv        *programVersion
	view      *core.View
	seq       uint64
	dbVersion int
	subs      map[*subscriber]bool
}

// subscriber is one changefeed consumer. ch is closed (after reason is set)
// by the fan-out path under the entry mutex — the close is the
// happens-before edge that lets the handler read reason safely.
type subscriber struct {
	ch     chan viewFrame
	reason string // "" = live; "slow_consumer" / "view_error" after close
}

// failLocked marks the subscriber dead and closes its channel; callers hold
// the entry mutex.
func (sub *subscriber) failLocked(reason string) {
	sub.reason = reason
	close(sub.ch)
}

// renderDiffLocked renders diff facts under the entry's symbol table,
// preserving the diff's canonical order; callers hold e.mu.
func (e *programEntry) renderDiffLocked(gs []ast.GroundAtom) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Format(e.syms)
	}
	return out
}

// broadcastLocked applies one mutation batch to every live view of the
// tenant and fans the resulting diff frames out to their subscribers;
// callers hold e.mu. A view that fails to apply (cancellation cannot happen
// here — maintenance runs under the background context — so this is a
// genuine error) tears down with view_error frames to its subscribers. A
// subscriber with no buffer space left is dropped with slow_consumer.
func (e *programEntry) broadcastLocked(t *tenantState, dbVersion int, delta core.DatabaseDelta) {
	for ver, lv := range t.views {
		diff, _, err := lv.view.Apply(context.Background(), delta)
		if err != nil {
			for sub := range lv.subs {
				sub.failLocked("view_error")
			}
			delete(t.views, ver)
			continue
		}
		lv.seq++
		lv.dbVersion = dbVersion
		f := viewFrame{
			Seq:       lv.seq,
			DBVersion: dbVersion,
			Added:     e.renderDiffLocked(diff.Added),
			Removed:   e.renderDiffLocked(diff.Removed),
		}
		for sub := range lv.subs {
			select {
			case sub.ch <- f:
			default:
				sub.failLocked("slow_consumer")
				delete(lv.subs, sub)
			}
		}
	}
}

// handleSubscribe opens a changefeed: it registers the subscriber on the
// tenant's live view for the requested program version (materializing the
// view on first use; force_dred selects delete-rederive for every stratum
// and applies to the view's first subscriber), writes a snapshot frame, and
// then streams one diff frame per mutation batch until the client
// disconnects or the subscriber is dropped.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		Tenant         string `json:"tenant"`
		ProgramVersion int    `json:"program_version"`
		ForceDRed      bool   `json:"force_dred"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	name := r.PathValue("name")
	e := s.entry(name)
	if e == nil {
		s.writeError(w, errUnknownProgram(name))
		return
	}
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, fmt.Errorf("service: streaming unsupported by connection"))
		return
	}

	e.mu.Lock()
	t := e.tenants[req.Tenant]
	if t == nil || t.versions[t.latest] == nil {
		e.mu.Unlock()
		s.writeError(w, &RequestError{Status: 404, Code: "unknown_tenant",
			Err: fmt.Errorf("service: program %q has no tenant %q", name, req.Tenant)})
		return
	}
	lv := t.views[pv.version]
	if lv == nil {
		view, _, err := pv.session.Materialize(context.Background(), t.versions[t.latest].DB(),
			core.MaintainOptions{ForceDRed: req.ForceDRed})
		if err != nil {
			e.mu.Unlock()
			s.writeError(w, err)
			return
		}
		lv = &liveView{pv: pv, view: view, dbVersion: t.latest, subs: make(map[*subscriber]bool)}
		t.views[pv.version] = lv
	}
	sub := &subscriber{ch: make(chan viewFrame, subscriberBuffer)}
	lv.subs[sub] = true
	// The snapshot frame is built under the same lock that registered the
	// subscriber, so the stream has no gap: every batch after this snapshot
	// arrives as a frame with a consecutive seq.
	snap := viewFrame{
		Seq:       lv.seq,
		DBVersion: lv.dbVersion,
		Snapshot:  true,
		Facts:     e.formatFactsLocked(lv.view.Output()),
	}
	e.mu.Unlock()

	defer func() {
		e.mu.Lock()
		if cur := t.views[pv.version]; cur != nil {
			delete(cur.subs, sub)
		}
		e.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(snap)
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case f, open := <-sub.ch:
			if !open {
				// Dropped under the entry lock; reason is safe to read after
				// the close.
				_ = enc.Encode(map[string]string{
					"error":   sub.reason,
					"message": fmt.Sprintf("service: subscription dropped: %s", sub.reason),
				})
				flusher.Flush()
				return
			}
			_ = enc.Encode(f)
			flusher.Flush()
		}
	}
}
