// Checkpoint/restore for the Detector facade: periodic durable snapshots
// of the full matching state plus a frame write-ahead log, so a crashed
// monitor resumes exactly — same candidate state, same future matches —
// instead of restarting blind mid-stream.
//
// Durability protocol. Config.CheckpointDir holds two files: the current
// checkpoint (written atomically via temp-file + rename) and the WAL of
// cell ids consumed since that checkpoint. Frames are appended and synced
// to the WAL before they are pushed into the engine; checkpoints are taken
// at basic-window boundaries every Config.CheckpointEvery, immediately on
// query churn (subscriptions are not in the WAL), after a Monitor-final
// partial-window flush (a mutation frame replay alone cannot reproduce),
// and on explicit Checkpoint calls. Recovery = Resume: load the
// checkpoint, replay the WAL tail through the ordinary matching kernel,
// fold the result into a fresh checkpoint. Replay is deterministic, so the
// resumed detector behaves byte-identically to an uninterrupted run;
// match delivery is at-least-once for the WAL tail (matches the crashed
// run already reported are re-derived into Detector.Replayed).
package vdsms

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/snapshot"
)

const (
	// CheckpointFileName is the checkpoint file inside Config.CheckpointDir.
	CheckpointFileName = "checkpoint.vckp"
	// WALFileName is the frame write-ahead log inside Config.CheckpointDir.
	WALFileName = "frames.wal"
)

// meta returns the pipeline parameters fingerprinted alongside the engine
// configuration: they shape the cell ids the engine consumes, so replaying
// a WAL under different values would silently corrupt state.
func (d *Detector) meta() snapshot.Meta {
	return snapshot.Meta{U: d.cfg.U, D: d.cfg.D, KeyFPS: d.cfg.KeyFPS}
}

// fingerprint is the compatibility stamp written into checkpoint and WAL
// headers. Workers is excluded: a checkpoint restores at any worker count.
func (d *Detector) fingerprint() uint64 {
	return d.engine.Config().Fingerprint(d.meta())
}

// CheckpointingEnabled reports whether this detector persists its state.
func (d *Detector) CheckpointingEnabled() bool { return d.cfg.CheckpointDir != "" }

// Checkpoint atomically writes the detector's complete matching state to
// the checkpoint directory and starts a fresh WAL lineage. Safe at any
// quiescent point, including mid-window. Returns an error if
// Config.CheckpointDir is unset.
func (d *Detector) Checkpoint() error {
	if !d.CheckpointingEnabled() {
		return fmt.Errorf("vdsms: checkpointing disabled (Config.CheckpointDir is empty)")
	}
	if err := os.MkdirAll(d.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("vdsms: creating checkpoint directory: %w", err)
	}
	ck := &snapshot.Checkpoint{Meta: d.meta(), Engine: *d.engine.ExportState()}
	path := filepath.Join(d.cfg.CheckpointDir, CheckpointFileName)
	err := snapshot.WriteFileAtomic(path, func(w io.Writer) error {
		return snapshot.Write(w, ck)
	})
	if err != nil {
		return fmt.Errorf("vdsms: writing checkpoint: %w", err)
	}
	// Rotate the WAL only after the checkpoint is durably in place: a crash
	// between the two leaves the new checkpoint with the old (longer) WAL,
	// whose baseFrame lets Resume skip the already-covered prefix.
	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			return fmt.Errorf("vdsms: closing WAL: %w", err)
		}
	}
	wal, err := snapshot.CreateWAL(filepath.Join(d.cfg.CheckpointDir, WALFileName),
		d.fingerprint(), ck.Engine.Frame)
	if err != nil {
		return fmt.Errorf("vdsms: rotating WAL: %w", err)
	}
	d.wal = wal
	d.lastCkpt = time.Now()
	return nil
}

// Close releases the WAL file handle. The final state is whatever the last
// Checkpoint captured plus the synced WAL tail; call Checkpoint first for
// a clean single-file handoff.
func (d *Detector) Close() error {
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}

// pushLogged is Monitor's frame path with durability: log and sync the
// batch, push it, and take a periodic checkpoint at window boundaries.
func (d *Detector) pushLogged(batch []uint64) error {
	if d.CheckpointingEnabled() {
		if d.wal == nil {
			// First frames of a fresh lineage: checkpoint the current state
			// (including subscriptions) so the WAL has a base to extend.
			if err := d.Checkpoint(); err != nil {
				return err
			}
		}
		if err := d.wal.Append(batch); err != nil {
			return err
		}
		if err := d.wal.Sync(); err != nil {
			return fmt.Errorf("vdsms: syncing WAL: %w", err)
		}
	}
	d.engine.PushFrames(batch)
	if d.CheckpointingEnabled() && d.cfg.CheckpointEvery > 0 &&
		d.engine.PendingFrames() == 0 && time.Since(d.lastCkpt) >= d.cfg.CheckpointEvery {
		return d.Checkpoint()
	}
	return nil
}

// checkpointOnChurn makes a subscription change durable immediately.
func (d *Detector) checkpointOnChurn() error {
	if !d.CheckpointingEnabled() {
		return nil
	}
	return d.Checkpoint()
}

// Resume rebuilds a detector from cfg.CheckpointDir: the checkpoint is
// loaded (failing loudly on any configuration drift, with the mismatched
// fields named), the WAL tail is replayed through the ordinary matching
// kernel, and the recovered state is folded into a fresh checkpoint. The
// returned bool reports whether a checkpoint existed; with an empty or
// absent directory Resume degenerates to NewDetector plus an initial
// checkpoint. Matches re-derived during replay are in Detector.Replayed,
// not delivered via OnMatch — the crashed run already reported them
// (recovery is at-least-once over the WAL tail).
func Resume(cfg Config) (*Detector, bool, error) {
	if cfg.CheckpointDir == "" {
		return nil, false, fmt.Errorf("vdsms: Resume requires Config.CheckpointDir")
	}
	d, err := NewDetector(cfg)
	if err != nil {
		return nil, false, err
	}

	data, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, CheckpointFileName))
	found := err == nil
	if err != nil && !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("vdsms: reading checkpoint: %w", err)
	}
	ckFrame := 0
	if found {
		ck, err := snapshot.Read(bytes.NewReader(data))
		if err != nil {
			return nil, false, err
		}
		// Engine-level fields are diffed by RestoreEngine below; the meta
		// triple (U, D, KeyFPS) is the facade's to check.
		if err := snapshot.CompatibilityError(ck.Meta, d.meta(), ck.Engine.Config, ck.Engine.Config); err != nil {
			return nil, false, err
		}
		eng, err := core.RestoreEngine(d.engine.Config(), &ck.Engine)
		if err != nil {
			return nil, false, err
		}
		d.adopt(eng)
		ckFrame = ck.Engine.Frame
	}

	fp, base, ids, err := snapshot.ReplayWAL(filepath.Join(cfg.CheckpointDir, WALFileName))
	if err != nil {
		return nil, false, err
	}
	if len(ids) > 0 {
		if fp != d.fingerprint() {
			return nil, false, fmt.Errorf("vdsms: WAL fingerprint %016x does not match configuration fingerprint %016x (the log belongs to a different lineage)",
				fp, d.fingerprint())
		}
		// A crash between checkpoint rename and WAL rotation leaves a WAL
		// older than the checkpoint: skip the prefix the checkpoint covers.
		skip := ckFrame - base
		if skip < 0 {
			return nil, false, fmt.Errorf("vdsms: WAL begins at frame %d but checkpoint holds frame %d; frames lost",
				base, ckFrame)
		}
		if skip < len(ids) {
			d.engine.PushFrames(ids[skip:])
			for _, m := range d.engine.Matches {
				d.Replayed = append(d.Replayed, d.convert(m))
			}
		}
	}

	// Fold the replayed tail into a fresh checkpoint so the next crash
	// replays from here.
	if err := d.Checkpoint(); err != nil {
		return nil, false, err
	}
	return d, found, nil
}
