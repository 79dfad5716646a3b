package codec

import (
	"fmt"
	"math"

	"repro/internal/vision"
)

// Config parameterizes an encoder instance.
type Config struct {
	// Width, Height are the frame dimensions.
	Width, Height int
	// FPS is the frame rate; together with TargetBitrate it sets the
	// per-frame bit budget.
	FPS int
	// TargetBitrate is the desired output rate in bits per second. The
	// rate controller adapts QP to approach it. Zero disables rate
	// control and uses InitialQP throughout.
	TargetBitrate float64
	// InitialQP seeds the quantization parameter (default 40).
	InitialQP float64
	// GOP is the keyframe interval in frames (default 150, i.e. 10 s
	// at 15 fps).
	GOP int
}

func (c *Config) fillDefaults() {
	if c.InitialQP <= 0 {
		c.InitialQP = 40
	}
	if c.GOP <= 0 {
		c.GOP = 150
	}
	if c.FPS <= 0 {
		c.FPS = 15
	}
}

// Frame is the result of encoding one input frame.
type Frame struct {
	// Bits is the coded size of this frame.
	Bits int64
	// Recon is the decoder-side reconstruction (what a datacenter
	// application would actually see).
	Recon *vision.Image
	// Keyframe reports whether the frame was intra-coded.
	Keyframe bool
	// QP is the quantization parameter used.
	QP float64
}

// Encoder compresses a stream of frames. It is stateful: P-frames
// predict from the previous reconstruction, and the rate controller
// carries bit debt across frames.
type Encoder struct {
	cfg Config

	qp        float64
	frameIdx  int
	totalBits int64

	// Frame buffers, reused for every frame: src holds the input in
	// YCbCr, sums is its chroma scratch, and recon ping-pongs between
	// the reconstruction being coded (recon[cur]) and the reference it
	// predicts from (recon[1-cur], valid when hasRef).
	src    ycbcr
	sums   []float32
	recon  [2]ycbcr
	cur    int
	hasRef bool
}

// NewEncoder constructs an encoder for the given configuration.
func NewEncoder(cfg Config) *Encoder {
	cfg.fillDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("codec: bad dims %dx%d", cfg.Width, cfg.Height))
	}
	e := &Encoder{cfg: cfg, qp: cfg.InitialQP, src: newYCbCr(cfg.Width, cfg.Height)}
	e.sums = make([]float32, 2*len(e.src.cb.pix))
	e.recon[0] = newYCbCr(cfg.Width, cfg.Height)
	e.recon[1] = newYCbCr(cfg.Width, cfg.Height)
	return e
}

// Encode compresses one frame and returns its coded size and
// reconstruction. The reconstruction is freshly allocated; the
// encoder's own buffers never escape.
func (e *Encoder) Encode(im *vision.Image) Frame {
	if im.W != e.cfg.Width || im.H != e.cfg.Height {
		panic(fmt.Sprintf("codec: frame %dx%d does not match encoder %dx%d", im.W, im.H, e.cfg.Width, e.cfg.Height))
	}
	intra := e.frameIdx%e.cfg.GOP == 0 || !e.hasRef
	e.src.convert(im, e.sums)
	rec := e.recon[e.cur]
	var pred ycbcr
	if !intra {
		pred = e.recon[1-e.cur]
	}
	bits := codePlane(e.src.y, pred.y, rec.y, e.qp)
	bits += codePlane(e.src.cb, pred.cb, rec.cb, e.qp)
	bits += codePlane(e.src.cr, pred.cr, rec.cr, e.qp)
	bits += 64 // frame header

	e.cur, e.hasRef = 1-e.cur, true
	e.frameIdx++
	e.totalBits += bits
	out := Frame{Bits: bits, Recon: fromYCbCr(rec.y, rec.cb, rec.cr), Keyframe: intra, QP: e.qp}
	e.adaptQP(bits, intra)
	return out
}

// adaptQP steers the quantizer toward the per-frame bit budget.
// Keyframes are allowed several times the budget (they are rare), so
// they only contribute damped feedback.
func (e *Encoder) adaptQP(bits int64, intra bool) {
	if e.cfg.TargetBitrate <= 0 {
		return
	}
	budget := e.cfg.TargetBitrate / float64(e.cfg.FPS)
	if budget <= 0 {
		return
	}
	ratio := float64(bits) / budget
	if intra {
		ratio /= 4 // keyframes may spend ~4x the average
	}
	// Multiplicative-increase proportional controller with damping.
	e.qp *= math.Pow(ratio, 0.3)
	if e.qp < 1 {
		e.qp = 1
	}
	if e.qp > 400 {
		e.qp = 400
	}
}

// TotalBits returns the bits spent so far.
func (e *Encoder) TotalBits() int64 { return e.totalBits }

// FramesEncoded returns the number of frames consumed.
func (e *Encoder) FramesEncoded() int { return e.frameIdx }

// AverageBitrate returns the realized bits per second so far.
func (e *Encoder) AverageBitrate() float64 {
	if e.frameIdx == 0 {
		return 0
	}
	return float64(e.totalBits) / float64(e.frameIdx) * float64(e.cfg.FPS)
}

// Reset clears temporal state (the next frame becomes a keyframe) but
// keeps the adapted QP, modelling the start of a new coded segment.
func (e *Encoder) Reset() {
	e.hasRef = false
	e.frameIdx = 0
}

// EncodeSegment compresses a sequence of frames as an independent
// segment at the configured target bitrate, returning total bits and
// the reconstructions. This is what FilterForward does with each
// matched event before upload (§3.5).
func EncodeSegment(cfg Config, frames []*vision.Image) (int64, []*vision.Image) {
	enc := NewEncoder(cfg)
	var bits int64
	recons := make([]*vision.Image, len(frames))
	for i, f := range frames {
		out := enc.Encode(f)
		bits += out.Bits
		recons[i] = out.Recon
	}
	return bits, recons
}
