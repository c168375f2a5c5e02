package ctxmatch

import (
	"io"
	"time"

	"ctxmatch/internal/core"
	"ctxmatch/internal/snapshot"
)

// Structured errors of the snapshot codec. Every LoadTarget failure
// wraps exactly one of them; test with errors.Is.
var (
	// ErrSnapshotFormat reports bytes that are not a snapshot, or a
	// structurally corrupt one.
	ErrSnapshotFormat = snapshot.ErrFormat
	// ErrSnapshotVersion reports a snapshot written by a format version
	// this build does not read.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotChecksum reports a snapshot section whose payload fails
	// its CRC32.
	ErrSnapshotChecksum = snapshot.ErrChecksum
	// ErrSnapshotTruncated reports a snapshot shorter than its header
	// declares.
	ErrSnapshotTruncated = snapshot.ErrTruncated
	// ErrSnapshotUnsupported reports content the snapshot format cannot
	// carry — a custom matcher type, a view table — or does not know.
	ErrSnapshotUnsupported = snapshot.ErrUnsupported
)

// WriteSnapshot serializes the prepared handle — the target schema with
// its sample instance, the matching configuration, and every compiled
// artifact (frozen gram dictionary, column feature vectors, candidate
// index postings, classifier log-likelihood tables) — into a versioned
// binary snapshot, returning the bytes written. LoadTarget restores the
// handle without re-preparing: a restored Target produces byte-identical
// results to this one.
//
// Snapshots are how prepared catalogs become build artifacts: prepare
// once (or build offline with the ctxmatch CLI), ship the snapshot to N
// serving nodes, and each restores in milliseconds instead of paying
// the training and column-scan cost of Prepare.
func (t *Target) WriteSnapshot(w io.Writer) (int64, error) {
	return t.prep.WriteSnapshot(w)
}

// LoadTarget restores a prepared-target handle from a snapshot written
// by WriteSnapshot. No training and no column scanning happens: the
// numeric artifact tables are reconstructed by reference to one
// contiguous buffer. The handle matches bit-identically to the one that
// wrote the snapshot and carries the snapshot's options, under which
// Target.MatchTarget trains source-side artifacts on demand, exactly as
// a fresh handle would.
//
// Arbitrary or corrupt input fails with an error wrapping one of the
// ErrSnapshot* sentinels — never a panic. Stats on the restored handle
// reports SnapshotBytes and RestoredFromSnapshot.
func LoadTarget(r io.Reader) (*Target, error) {
	start := time.Now()
	pt, err := core.LoadPreparedTarget(r)
	if err != nil {
		return nil, err
	}
	return &Target{prep: pt, schema: pt.Target(), prepTime: time.Since(start)}, nil
}
