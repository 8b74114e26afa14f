// Package ackcase exercises the durability-ordering analyzer inside the
// ackmark scope: unannotated durable-write handlers must carry
// //raqo:ack, and annotated functions must make writes durable on every
// path before acknowledging.
package ackcase

import (
	"encoding/json"
	"net/http"
)

// obsJournal stands in for the feedback journal: Append and AppendBatch
// on a *Journal receiver are durable writes.
type obsJournal struct{}

func (j *obsJournal) Append(v int) error        { return nil }
func (j *obsJournal) AppendBatch(v []int) error { return nil }

// wal stands in for the history store: Commit is a durable write.
type wal struct{}

func (w *wal) Commit() error { return nil }

// writeOK is this package's success writer: constant 2xx plus a body.
func writeOK(w http.ResponseWriter, v any) {
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// HandleUnmarked journals and acknowledges but carries no annotation, so
// the ordering invariant is unchecked — exactly what ackmark exists for.
func HandleUnmarked(w http.ResponseWriter, j *obsJournal) { // want `\[ackmark\] HandleUnmarked performs durable writes and acknowledges success`
	if err := j.Append(1); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeOK(w, "ok")
}

// AckFirst acknowledges before the journal write: a crash between the
// two loses an acknowledged observation.
//
//raqo:ack
func AckFirst(w http.ResponseWriter, j *obsJournal) {
	writeOK(w, "ok") // want `\[durable\] HTTP success write in //raqo:ack AckFirst is reachable without a durable write`
	_ = j.Append(1)
}

// BranchMiss skips the durable write on the fast path but acknowledges
// unconditionally.
//
//raqo:ack
func BranchMiss(w http.ResponseWriter, j *obsJournal, fast bool) {
	if !fast {
		if err := j.Append(1); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.WriteHeader(http.StatusOK) // want `\[durable\] HTTP 2xx write in //raqo:ack BranchMiss is reachable without a durable write`
}

// NakedAck returns success without any durable write on the nil branch;
// the guard inverts the sanctioned `!= nil` shape, so nothing makes the
// nil path vacuously durable.
//
//raqo:ack
func NakedAck(j *obsJournal) error {
	if j == nil {
		return nil // want `\[durable\] success return in //raqo:ack NakedAck is reachable without a durable write`
	}
	return j.Append(3)
}

// CommitThenAck is the correct ordering: durable on every path reaching
// the acknowledgement.
//
//raqo:ack
func CommitThenAck(w http.ResponseWriter, l *wal) {
	if err := l.Commit(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeOK(w, "done")
}

// GuardedAck uses the sanctioned nil-guard: with no journal attached
// there is nothing to make durable, so the success return is vacuously
// covered on the nil edge.
//
//raqo:ack
func GuardedAck(j *obsJournal) error {
	if j != nil {
		if err := j.Append(7); err != nil {
			return err
		}
	}
	return nil
}

// GuardedBatchAck is GuardedAck with the batch write: the shape of the
// feedback store's AppendBatch.
//
//raqo:ack
func GuardedBatchAck(j *obsJournal, batch []int) error {
	if j != nil {
		if err := j.AppendBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

// BatchAfterAck validates, acknowledges an empty batch early and only
// then reaches the durable write.
//
//raqo:ack
func BatchAfterAck(j *obsJournal, batch []int) error {
	if len(batch) == 0 {
		return nil // want `\[durable\] success return in //raqo:ack BatchAfterAck is reachable without a durable write`
	}
	return j.AppendBatch(batch)
}
