package core

// The §3.3 tier ladder, written once. A Session and a Broadcast both
// embed a tier: the spec it was admitted under, the legs it holds
// (circuit, optional disk reservation, optional CPU domain) and its
// current quality factor. The tier derives the rate, frame size and
// CPU geometry at any factor, moves every held leg to a new factor
// atomically, and climbs back up the ladder.

import (
	"repro/internal/fileserver"
	"repro/internal/netsig"
)

// qosLadder is the shared tier ladder degradation and restoration walk:
// every contending Adaptive session sits at the same rung, which is
// what makes the scaling proportional.
var qosLadder = [...]float64{0.75, 0.5, 0.25}

// tier is one stream-plane handle's place on the quality ladder.
type tier struct {
	site *Site
	spec SessionSpec

	circ *netsig.Circuit
	cm   *fileserver.CMStream // disk leg; nil for link-only streams
	cpu  *StreamDomain

	// factor is the current quality level: 1 is full quality, lower is
	// a degraded tier; never below floor() while open.
	factor float64
}

// floor is the lowest factor the tier may be degraded to.
func (t *tier) floor() float64 {
	if t.spec.MinRateFrac > 0 {
		return t.spec.MinRateFrac
	}
	return DefaultMinRateFrac
}

// rateAt is the admitted link rate at quality factor f. Rounded to
// nearest so a factor derived from a requested rate (Renegotiate)
// round-trips to exactly that rate.
func (t *tier) rateAt(f float64) int64 {
	r := int64(float64(t.spec.PeakRate)*f + 0.5)
	if r < 1 {
		r = 1
	}
	return r
}

// frameBytesAt is the served frame size at quality factor f.
func (t *tier) frameBytesAt(f float64) int {
	fb := int(float64(t.spec.FrameBytes)*f + 0.5)
	if fb < 1 {
		fb = 1
	}
	if fb > t.spec.FrameBytes {
		fb = t.spec.FrameBytes
	}
	return fb
}

// cpuGeometryAt derives the CPU contract's frame geometry at quality
// factor f: the served frame size and rate for streams with a frame
// geometry, or a DefaultCPUHz equivalent carved from the admitted link
// rate otherwise — either way, slice/period ∝ the stream's rate.
func (t *tier) cpuGeometryAt(f float64) (frameBytes, frameHz int) {
	frameHz = t.spec.FrameHz
	if frameHz <= 0 {
		frameHz = DefaultCPUHz
	}
	if t.spec.FrameBytes > 0 {
		return t.frameBytesAt(f), frameHz
	}
	fb := int(t.rateAt(f) / 8 / int64(frameHz))
	if fb < 1 {
		fb = 1
	}
	return fb, frameHz
}

// setLevel moves every held leg to quality factor f atomically: the
// link leg renegotiates first (netsig.ModifyRate, every branch of a
// tree included), then the disk leg, then the CPU leg; if a later leg
// refuses a grow, the earlier grows are rolled back (shrinks, which
// cannot fail), so a refused move leaves the tier exactly as it was.
// Shrinks cannot be refused by any leg.
func (t *tier) setLevel(f float64) error {
	sig := t.site.Signalling
	oldRate := t.circ.PeakRate
	newRate := t.rateAt(f)
	if newRate != oldRate {
		if err := sig.ModifyRate(t.circ.ID, newRate); err != nil {
			return err
		}
	}
	oldFB := 0
	if t.cm != nil {
		oldFB = t.cm.FrameBytes()
		if err := t.spec.CM.Reshape(t.cm, t.frameBytesAt(f), t.spec.FrameHz); err != nil {
			if newRate != oldRate {
				_ = sig.ModifyRate(t.circ.ID, oldRate)
			}
			return err
		}
	}
	if t.cpu != nil {
		fb, _ := t.cpuGeometryAt(f)
		if err := t.cpu.Reshape(fb); err != nil {
			if t.cm != nil {
				_ = t.spec.CM.Reshape(t.cm, oldFB, t.spec.FrameHz)
			}
			if newRate != oldRate {
				_ = sig.ModifyRate(t.circ.ID, oldRate)
			}
			return err
		}
	}
	t.factor = f
	return nil
}

// climb is the ladder's upward walk: target first, then every ladder
// rung between target and the current tier, taking the highest the
// budgets admit. It reports the first error only when no step up fit
// at all. Pure mechanics; the caller decides whether the climb counts
// as a restore event.
func (t *tier) climb(target float64) error {
	steps := [1 + len(qosLadder)]float64{target}
	copy(steps[1:], qosLadder[:])
	var firstErr error
	for _, f := range steps {
		if f > target || f <= t.factor {
			continue
		}
		if err := t.setLevel(f); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return nil
	}
	return firstErr
}
