package codec

import "repro/internal/vision"

// plane is a single-channel float32 image with values in [0,255].
type plane struct {
	w, h int
	pix  []float32
}

func newPlane(w, h int) *plane {
	return &plane{w: w, h: h, pix: make([]float32, w*h)}
}

func (p *plane) at(x, y int) float32 {
	// Clamp-to-edge addressing pads frames whose dims are not block
	// multiples.
	if x >= p.w {
		x = p.w - 1
	}
	if y >= p.h {
		y = p.h - 1
	}
	return p.pix[y*p.w+x]
}

func (p *plane) set(x, y int, v float32) {
	if x >= p.w || y >= p.h {
		return
	}
	p.pix[y*p.w+x] = v
}

// ycbcr is one frame in the codec's colour space: full-resolution Y
// and half-resolution Cb, Cr planes, all scaled to [0,255].
type ycbcr struct {
	y, cb, cr *plane
}

func newYCbCr(w, h int) ycbcr {
	cw, ch := (w+1)/2, (h+1)/2
	return ycbcr{y: newPlane(w, h), cb: newPlane(cw, ch), cr: newPlane(cw, ch)}
}

// convert overwrites f with im, an RGB image in [0,1] (BT.601),
// averaging each 2x2 block for chroma. sums is scratch of twice the
// chroma plane size.
func (f ycbcr) convert(im *vision.Image, sums []float32) {
	y, cb, cr := f.y, f.cb, f.cr
	cw := cb.w
	cbSum, crSum := sums[:len(cb.pix)], sums[len(cb.pix):]
	clear(sums)
	for yy := 0; yy < im.H; yy++ {
		for xx := 0; xx < im.W; xx++ {
			r, g, b := im.At(xx, yy)
			lum := 0.299*r + 0.587*g + 0.114*b
			y.pix[yy*im.W+xx] = lum * 255
			ci := (yy/2)*cw + xx/2
			cbSum[ci] += ((b-lum)*0.564 + 0.5) * 255
			crSum[ci] += ((r-lum)*0.713 + 0.5) * 255
		}
	}
	for i := range cbSum {
		// Samples per chroma cell: 4, fewer on an odd right or bottom
		// edge.
		n := float32(min(2, im.W-2*(i%cw)) * min(2, im.H-2*(i/cw)))
		cb.pix[i] = cbSum[i] / n
		cr.pix[i] = crSum[i] / n
	}
}

// fromYCbCr reconstructs an RGB image from Y and subsampled Cb, Cr
// planes (nearest-neighbour chroma upsampling).
func fromYCbCr(y, cb, cr *plane) *vision.Image {
	im := vision.NewImage(y.w, y.h)
	cw := cb.w
	for yy := 0; yy < y.h; yy++ {
		for xx := 0; xx < y.w; xx++ {
			lum := y.pix[yy*y.w+xx] / 255
			ci := (yy/2)*cw + xx/2
			cbv := cb.pix[ci]/255 - 0.5
			crv := cr.pix[ci]/255 - 0.5
			r := lum + crv/0.713
			b := lum + cbv/0.564
			g := (lum - 0.299*r - 0.114*b) / 0.587
			im.Set(xx, yy, clamp01(r), clamp01(g), clamp01(b))
		}
	}
	return im
}

func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// codePlane codes src against the prediction pred (nil for intra),
// writing the reconstruction into recon and returning the bits used.
func codePlane(src, pred, recon *plane, qp float64) int64 {
	var bits int64
	var blk [blockSize][blockSize]float64
	for by := 0; by < src.h; by += blockSize {
		for bx := 0; bx < src.w; bx += blockSize {
			// Residual (or raw for intra, shifted to be zero-centred).
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					v := float64(src.at(bx+x, by+y))
					if pred != nil {
						v -= float64(pred.at(bx+x, by+y))
					} else {
						v -= 128
					}
					blk[y][x] = v
				}
			}
			bits += quantizeBlock(&blk, qp)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					v := blk[y][x]
					if pred != nil {
						v += float64(pred.at(bx+x, by+y))
					} else {
						v += 128
					}
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					recon.set(bx+x, by+y, float32(v))
				}
			}
		}
	}
	return bits
}
