package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"vdsms/internal/mpeg"
	"vdsms/internal/vframe"
	"vdsms/internal/workload"
)

// Encoding parameters shared by every generated stream. The streams are
// intra-only (GOP 1) at the paper's 2 key frames per second, so any frame
// range of an encoded stream, prefixed with the stream header, is itself a
// valid MVC1 clip: clips and segments are cut by splicing, never re-encoded.
const (
	keyFPS  = 2
	quality = 75
	frameW  = 96
	frameH  = 80
)

// encoded is one MVC1 stream held in memory with its frame index.
type encoded struct {
	data  []byte
	spans []mpeg.FrameSpan
}

// encode writes src intra-only and indexes the result.
func encode(src vframe.Source) (encoded, error) {
	var buf bytes.Buffer
	if _, err := mpeg.EncodeSource(&buf, src, quality, 1); err != nil {
		return encoded{}, err
	}
	spans, err := mpeg.Frames(buf.Bytes())
	if err != nil {
		return encoded{}, err
	}
	return encoded{data: buf.Bytes(), spans: spans}, nil
}

// frames returns the stream's frame count.
func (e encoded) frames() int { return len(e.spans) }

// span is a frame range [from, to) of one encoded stream.
type span struct {
	src      *encoded
	from, to int
}

// bytesOf returns the encoded bytes of frames [from, to), without the
// stream header.
func (s span) bytesOf() []byte {
	if s.from >= s.to {
		return nil
	}
	end := len(s.src.data)
	if s.to < len(s.src.spans) {
		end = s.src.spans[s.to].Off
	}
	return s.src.data[s.src.spans[s.from].Off:end]
}

// splice returns a reader over a standalone MVC1 stream made of the
// header of the first span's stream followed by the frames of every span,
// in order. Nothing is copied or re-encoded.
func splice(parts ...span) io.Reader {
	rs := make([]io.Reader, 0, len(parts)+1)
	rs = append(rs, bytes.NewReader(parts[0].src.data[:mpeg.HeaderBytes]))
	for _, p := range parts {
		rs = append(rs, bytes.NewReader(p.bytesOf()))
	}
	return io.MultiReader(rs...)
}

// rotation returns the spans that feed frames [from, from+n) of the
// stream repeated end to end, wrapping past its last frame.
func rotation(src *encoded, from, n int) []span {
	var out []span
	total := src.frames()
	for n > 0 {
		from %= total
		k := min(n, total-from)
		out = append(out, span{src: src, from: from, to: from + k})
		from += k
		n -= k
	}
	return out
}

// inputs is everything one seed generates, built once before any timing.
type inputs struct {
	// stream is the VS2 stream: base footage with the edited, reordered
	// shorts inserted. shorts are the original (unedited) shorts, which
	// are the workload's queries; truth locates each insertion.
	stream encoded
	shorts []encoded
	truth  []workload.Insertion
	// decoy is footage that appears in no stream (fleet-churn only).
	decoy *encoded
}

// numShorts is how many shorts the VS2 scenario inserts: twice the
// repository's default of 20, so recall is counted over enough insertions
// to stay steady from seed to seed (with 20, its interquartile range over
// ten seeds was 22–26% of the median).
const numShorts = 40

// genInputs synthesises and encodes the seed's material. The VS2 scenario
// is the repository's own evaluation workload (internal/workload) with
// numShorts shorts and its default durations.
func genInputs(seed int64, withDecoy bool) (*inputs, error) {
	wl := workload.Build(workload.Config{Seed: seed, Edited: true, KeyFPS: keyFPS,
		W: frameW, H: frameH, Quality: quality, NumShorts: numShorts})
	in := &inputs{truth: wl.Truth}
	var err error
	if in.stream, err = encode(wl.Stream); err != nil {
		return nil, fmt.Errorf("encoding stream: %w", err)
	}
	for _, q := range wl.Queries {
		e, err := encode(q.Video)
		if err != nil {
			return nil, fmt.Errorf("encoding short %d: %w", q.ID, err)
		}
		if q.ID != len(in.shorts)+1 {
			return nil, fmt.Errorf("short ids not dense at %d", q.ID)
		}
		in.shorts = append(in.shorts, e)
	}
	if withDecoy {
		// Many short independent sources, so how strongly the decoys relate
		// to the monitored stream averages out instead of hinging on one
		// source's content.
		parts := make([]vframe.Source, decoySources)
		for i := range parts {
			parts[i] = vframe.NewSynth(vframe.SynthConfig{
				W: frameW, H: frameH, FPS: keyFPS, NumFrames: decoyFrames / decoySources,
				Seed: seed*104729 + 12345 + int64(i)*7919,
			})
		}
		d, err := encode(vframe.Concat(parts...))
		if err != nil {
			return nil, fmt.Errorf("encoding decoy footage: %w", err)
		}
		in.decoy = &d
	}
	return in, nil
}

// decoyFrames is the length of the decoy footage in key frames (10 min),
// made of decoySources independent sources.
const (
	decoyFrames  = 1200
	decoySources = 24
)

// clip is one query subscription: an id and the frame spans it is cut from.
type clip struct {
	id   int
	part span
}

func (c clip) reader() io.Reader { return splice(c.part) }

// cutClips cuts n clips of lenMin..lenMax key frames at seeded offsets
// from src, with ids starting at firstID.
func cutClips(src *encoded, n, firstID, lenMin, lenMax int, r *rng) []clip {
	out := make([]clip, n)
	for i := range out {
		l := lenMin + r.intn(lenMax-lenMin+1)
		off := r.intn(src.frames() - l + 1)
		out[i] = clip{id: firstID + i, part: span{src: src, from: off, to: off + l}}
	}
	return out
}

// shortClips returns the original shorts as whole-clip subscriptions.
func (in *inputs) shortClips() []clip {
	out := make([]clip, len(in.shorts))
	for i := range in.shorts {
		out[i] = clip{id: i + 1, part: span{src: &in.shorts[i], from: 0, to: in.shorts[i].frames()}}
	}
	return out
}

// digest fingerprints every generated byte and every cut, so two runs can
// be shown to have used identical inputs.
func digest(streams []*encoded, clips []clip) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range streams {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s.data)))
		h.Write(b[:])
		h.Write(s.data)
	}
	sorted := append([]clip(nil), clips...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	for _, c := range sorted {
		for _, v := range []int{c.id, c.part.from, c.part.to} {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		h.Write(c.part.src.data[:mpeg.HeaderBytes])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rng is SplitMix64: stable across Go releases, so a seed names the same
// inputs on every toolchain.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
