package codec

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/tensor"
	"repro/internal/vision"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	var b, orig [blockSize][blockSize]float64
	for y := range b {
		for x := range b[y] {
			b[y][x] = rng.Uniform(-128, 128)
			orig[y][x] = b[y][x]
		}
	}
	fdct8x8(&b)
	idct8x8(&b)
	for y := range b {
		for x := range b[y] {
			if math.Abs(b[y][x]-orig[y][x]) > 1e-9 {
				t.Fatalf("DCT round trip lost %v at (%d,%d)", b[y][x]-orig[y][x], y, x)
			}
		}
	}
}

func TestDCTParseval(t *testing.T) {
	// Orthonormal DCT preserves energy.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		var b [blockSize][blockSize]float64
		var in float64
		for y := range b {
			for x := range b[y] {
				b[y][x] = rng.Uniform(-1, 1)
				in += b[y][x] * b[y][x]
			}
		}
		fdct8x8(&b)
		var out float64
		for y := range b {
			for x := range b[y] {
				out += b[y][x] * b[y][x]
			}
		}
		return math.Abs(in-out) < 1e-9*(1+in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZigzagCoversAllOnce(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, p := range zigzag {
		if seen[p] {
			t.Fatalf("zigzag repeats %v", p)
		}
		seen[p] = true
	}
	if len(seen) != 64 {
		t.Fatalf("zigzag covers %d cells", len(seen))
	}
	if zigzag[0] != [2]int{0, 0} || zigzag[1] != [2]int{0, 1} || zigzag[2] != [2]int{1, 0} {
		t.Fatalf("zigzag start wrong: %v", zigzag[:3])
	}
}

func TestQuantizeMoreQPFewerBits(t *testing.T) {
	rng := tensor.NewRNG(2)
	var src [blockSize][blockSize]float64
	for y := range src {
		for x := range src[y] {
			src[y][x] = rng.Uniform(-100, 100)
		}
	}
	blkLo := src
	blkHi := src
	bitsLo := quantizeBlock(&blkLo, 10)
	bitsHi := quantizeBlock(&blkHi, 200)
	if bitsHi >= bitsLo {
		t.Fatalf("qp 200 used %d bits, qp 10 used %d; want fewer at higher qp", bitsHi, bitsLo)
	}
}

func TestYCbCrRoundTripApprox(t *testing.T) {
	// Smooth, spatially-correlated color content (the realistic case
	// for 4:2:0 subsampling): a two-tone gradient.
	im := vision.NewImage(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			im.Set(x, y, float32(x)/16, 0.5, float32(y)/16)
		}
	}
	back := fromYCbCr(toYCbCr(im))
	if p := vision.PSNR(im, back); p < 25 {
		t.Fatalf("YCbCr round-trip PSNR %v too low", p)
	}
}

func TestYCbCrGrayExact(t *testing.T) {
	im := vision.NewImage(8, 8)
	for i := range im.Pix {
		im.Pix[i] = 0.5
	}
	back := fromYCbCr(toYCbCr(im))
	if p := vision.PSNR(im, back); p < 45 {
		t.Fatalf("gray round-trip PSNR %v", p)
	}
}

// toYCbCr converts an RGB image into freshly allocated planes.
func toYCbCr(im *vision.Image) (y, cb, cr *plane) {
	f := newYCbCr(im.W, im.H)
	f.convert(im, make([]float32, 2*len(f.cb.pix)))
	return f.y, f.cb, f.cr
}

func staticFrames(n, w, h int, seed int64) []*vision.Image {
	bg := vision.Background(w, h, nil, seed)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.005}
	frames := make([]*vision.Image, n)
	for i := range frames {
		frames[i] = scene.Render(nil, 1, tensor.NewRNG(seed+int64(i)))
	}
	return frames
}

func TestPFramesCheaperThanIFrames(t *testing.T) {
	frames := staticFrames(10, 64, 48, 4)
	enc := NewEncoder(Config{Width: 64, Height: 48, FPS: 15, InitialQP: 40})
	first := enc.Encode(frames[0])
	if !first.Keyframe {
		t.Fatal("first frame must be a keyframe")
	}
	var pBits int64
	for _, f := range frames[1:] {
		out := enc.Encode(f)
		if out.Keyframe {
			t.Fatal("unexpected keyframe inside GOP")
		}
		pBits += out.Bits
	}
	avgP := pBits / int64(len(frames)-1)
	if avgP*3 > first.Bits {
		t.Fatalf("static-scene P-frames too expensive: I=%d, avg P=%d", first.Bits, avgP)
	}
}

func TestHigherQPLowerQuality(t *testing.T) {
	frames := staticFrames(1, 64, 48, 5)
	lo := NewEncoder(Config{Width: 64, Height: 48, InitialQP: 5}).Encode(frames[0])
	hi := NewEncoder(Config{Width: 64, Height: 48, InitialQP: 200}).Encode(frames[0])
	pLo := vision.PSNR(frames[0], lo.Recon)
	pHi := vision.PSNR(frames[0], hi.Recon)
	if pLo <= pHi {
		t.Fatalf("PSNR lo-qp %v <= hi-qp %v", pLo, pHi)
	}
	if lo.Bits <= hi.Bits {
		t.Fatalf("bits lo-qp %d <= hi-qp %d", lo.Bits, hi.Bits)
	}
}

func TestRateControlApproachesTarget(t *testing.T) {
	// Encode real moving content at a target bitrate and verify the
	// realized rate is within a factor of two after convergence.
	d := dataset.Generate(dataset.Jackson(96, 120, 6))
	target := 60_000.0 // bits/s at working scale
	enc := NewEncoder(Config{Width: d.Cfg.Width, Height: d.Cfg.Height, FPS: 15, TargetBitrate: target, GOP: 60})
	var bits int64
	n := 120
	for i := 0; i < n; i++ {
		bits += enc.Encode(d.Frame(i)).Bits
	}
	rate := float64(bits) / float64(n) * 15
	if rate > target*2 || rate < target/3 {
		t.Fatalf("realized bitrate %v vs target %v", rate, target)
	}
}

func TestLowBitrateDestroysSmallDetails(t *testing.T) {
	// The paper's core accuracy argument: heavy compression destroys
	// small objects. Render a frame with a small pedestrian and check
	// that reconstruction error around the object is much larger at
	// low bitrate than at high bitrate.
	bg := vision.Background(96, 54, nil, 7)
	scene := &vision.Scene{Background: bg}
	obj := &vision.Object{Kind: vision.PedestrianRed, X: 40, Y: 35, W: 4, H: 9,
		Body: [3]float32{0.2, 0.5, 0.7}, Accent: [3]float32{0.95, 0.1, 0.1}}
	frame := scene.Render([]*vision.Object{obj}, 1, tensor.NewRNG(8))

	errAround := func(recon *vision.Image) float64 {
		var s float64
		n := 0
		for y := 33; y < 46; y++ {
			for x := 38; x < 46; x++ {
				r0, g0, b0 := frame.At(x, y)
				r1, g1, b1 := recon.At(x, y)
				s += float64((r0-r1)*(r0-r1) + (g0-g1)*(g0-g1) + (b0-b1)*(b0-b1))
				n++
			}
		}
		return s / float64(n)
	}
	hiQ := NewEncoder(Config{Width: 96, Height: 54, InitialQP: 4}).Encode(frame)
	loQ := NewEncoder(Config{Width: 96, Height: 54, InitialQP: 250}).Encode(frame)
	if errAround(loQ.Recon) < 4*errAround(hiQ.Recon) {
		t.Fatalf("low bitrate did not destroy detail: hi %v lo %v", errAround(hiQ.Recon), errAround(loQ.Recon))
	}
}

func TestEncodeSegment(t *testing.T) {
	frames := staticFrames(5, 32, 32, 9)
	bits, recons := EncodeSegment(Config{Width: 32, Height: 32, InitialQP: 30}, frames)
	if len(recons) != 5 || bits <= 0 {
		t.Fatalf("segment bits=%d recons=%d", bits, len(recons))
	}
	for _, r := range recons {
		if r.W != 32 || r.H != 32 {
			t.Fatal("recon dims wrong")
		}
	}
}

func TestEncoderStatsAndReset(t *testing.T) {
	frames := staticFrames(4, 32, 32, 10)
	enc := NewEncoder(Config{Width: 32, Height: 32, FPS: 15, InitialQP: 30})
	for _, f := range frames {
		enc.Encode(f)
	}
	if enc.FramesEncoded() != 4 || enc.TotalBits() <= 0 {
		t.Fatal("encoder stats wrong")
	}
	if enc.AverageBitrate() <= 0 {
		t.Fatal("average bitrate wrong")
	}
	enc.Reset()
	out := enc.Encode(frames[0])
	if !out.Keyframe {
		t.Fatal("frame after Reset must be a keyframe")
	}
}

func TestOddDimensionsHandled(t *testing.T) {
	// 45x27 is neither a block multiple nor even; the codec must not
	// panic and must reconstruct with the right dims.
	im := vision.NewImage(45, 27)
	rng := tensor.NewRNG(11)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	out := NewEncoder(Config{Width: 45, Height: 27, InitialQP: 20}).Encode(im)
	if out.Recon.W != 45 || out.Recon.H != 27 {
		t.Fatalf("recon dims %dx%d", out.Recon.W, out.Recon.H)
	}
}

// encodeDigest hashes everything an encoder run exposes per frame:
// coded size, frame type, QP and every reconstructed sample.
func encodeDigest(outs []Frame) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, o := range outs {
		put(uint64(o.Bits))
		put(math.Float64bits(o.QP))
		if o.Keyframe {
			put(1)
		}
		for _, p := range o.Recon.Pix {
			put(uint64(math.Float32bits(p)))
		}
	}
	return h.Sum64()
}

// TestEncoderOutputPinned pins bits, frame types, QPs and
// reconstructions to digests recorded from the allocate-per-frame
// encoder, so buffer reuse inside the encoder cannot change output:
// a rate-controlled 96x54 segment, and odd 45x27 dims with a short
// GOP and a Reset mid-stream.
func TestEncoderOutputPinned(t *testing.T) {
	run := func(cfg Config, frames []*vision.Image, resetAt int) uint64 {
		enc := NewEncoder(cfg)
		var outs []Frame
		for i, f := range frames {
			if i == resetAt {
				enc.Reset()
			}
			outs = append(outs, enc.Encode(f))
		}
		return encodeDigest(outs)
	}
	segment := staticFrames(48, 96, 54, 21)
	if got, want := run(Config{Width: 96, Height: 54, FPS: 15, TargetBitrate: 100_000}, segment, -1), uint64(0xb24979a6313036e3); got != want {
		t.Errorf("96x54 segment digest %#x, want %#x", got, want)
	}
	odd := staticFrames(12, 45, 27, 22)
	if got, want := run(Config{Width: 45, Height: 27, FPS: 15, TargetBitrate: 30_000, InitialQP: 20, GOP: 4}, odd, 7), uint64(0x86f0180d43afb91); got != want {
		t.Errorf("45x27 GOP-4 digest %#x, want %#x", got, want)
	}
	bits, recons := EncodeSegment(Config{Width: 96, Height: 54, FPS: 15, TargetBitrate: 100_000}, segment)
	enc := NewEncoder(Config{Width: 96, Height: 54, FPS: 15, TargetBitrate: 100_000})
	var sum int64
	for i, f := range segment {
		out := enc.Encode(f)
		sum += out.Bits
		for j, p := range out.Recon.Pix {
			if recons[i].Pix[j] != p {
				t.Fatalf("EncodeSegment frame %d sample %d differs from Encoder.Encode", i, j)
			}
		}
	}
	if sum != bits {
		t.Fatalf("EncodeSegment bits %d, Encoder.Encode sum %d", bits, sum)
	}
}

// BenchmarkEncodeSegment codes one 48-frame 96x54 segment, the edge
// pipeline's default chunk at benchmark scale.
func BenchmarkEncodeSegment(b *testing.B) {
	frames := staticFrames(48, 96, 54, 21)
	cfg := Config{Width: 96, Height: 54, FPS: 15, TargetBitrate: 100_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeSegment(cfg, frames)
	}
}

// TestEncodeAllocsPerFrame pins the encoder's steady state to the
// returned reconstruction (image header and pixels): the YCbCr planes,
// the chroma scratch and the reference are reused across frames.
func TestEncodeAllocsPerFrame(t *testing.T) {
	frames := staticFrames(2, 96, 54, 23)
	enc := NewEncoder(Config{Width: 96, Height: 54, FPS: 15, TargetBitrate: 100_000})
	i := 0
	if n := testing.AllocsPerRun(20, func() {
		enc.Encode(frames[i%2])
		i++
	}); n > 2 {
		t.Fatalf("Encode allocates %v objects per frame, want at most 2", n)
	}
}
