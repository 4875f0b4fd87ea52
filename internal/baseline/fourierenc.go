package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"privbayes/internal/dataset"
	"privbayes/internal/dp"
	"privbayes/internal/encoding"
	"privbayes/internal/marginal"
)

// FourierEncoded implements the Fourier baseline of Barak et al. (2007):
// release noisy Walsh–Hadamard (Fourier) coefficients of the empirical
// distribution, from which the α-way marginals are reconstructed. The
// dataset is binarized (Section 5.1 binary encoding) and a coefficient is
// released for every bit-subset spanned by some query marginal. Changing
// one tuple moves 1/n of mass between two cells, shifting each
// coefficient by at most 2/n; with C released coefficients the L1
// sensitivity is 2C/n, so each coefficient gets Laplace(2C/(n·ε)) noise.
//
// On all-binary data every attribute is one bit, so C counts the
// attribute subsets of size at most α, as in Barak et al. Answering an
// α-way marginal over wider attributes needs coefficients over all bits
// of those attributes, so C — and with it the noise — grows with the
// attributes' bit widths. That blow-up is exactly why Fourier degrades
// sharply on Adult and BR2000 in Figures 14-15.
//
// Coefficients are noised lazily but exactly once (cached by global
// bit-set), keeping all served marginals mutually consistent.
type FourierEncoded struct {
	orig   *dataset.Dataset
	enc    *dataset.Dataset
	codec  *encoding.Codec
	bitsOf [][]int // global bit-column indices per original attribute
	scale  float64
	coeffs map[string]float64
	rng    *rand.Rand
}

// NewFourierEncoded prepares the mechanism under ε-DP for the query set
// Qα over the original attributes.
func NewFourierEncoded(ds *dataset.Dataset, alpha int, epsilon float64, rng *rand.Rand) *FourierEncoded {
	codec := encoding.NewCodec(encoding.Binary, ds.Attrs())
	enc := codec.Encode(ds)
	f := &FourierEncoded{
		orig:   ds,
		enc:    enc,
		codec:  codec,
		coeffs: make(map[string]float64),
		rng:    rng,
	}
	// Recover each attribute's global bit columns from the codec layout.
	bit := 0
	for a := 0; a < ds.D(); a++ {
		nb := ds.Attr(a).Bits()
		cols := make([]int, nb)
		for i := range cols {
			cols[i] = bit
			bit++
		}
		f.bitsOf = append(f.bitsOf, cols)
	}
	c := f.coefficientCount(alpha)
	f.scale = 2 * c / (float64(ds.N()) * epsilon)
	return f
}

// coefficientCount returns C = Σ_{U ⊆ attrs, |U| ≤ α} Π_{a∈U} (2^{b_a}−1),
// the number of distinct Walsh–Hadamard coefficients spanned by Qα, via a
// subset-size dynamic program.
func (f *FourierEncoded) coefficientCount(alpha int) float64 {
	// sums[s] = sum over attr-subsets of size s of the product.
	sums := make([]float64, alpha+1)
	sums[0] = 1
	for a := 0; a < f.orig.D(); a++ {
		w := float64(int(1)<<uint(len(f.bitsOf[a]))) - 1
		for s := alpha; s >= 1; s-- {
			sums[s] += sums[s-1] * w
		}
	}
	var total float64
	for _, v := range sums {
		total += v
	}
	return total
}

// Marginal implements MarginalSource: reconstruct the noisy binary
// marginal over the attributes' bits from (cached) noisy coefficients,
// then fold bit patterns back into original codes.
func (f *FourierEncoded) Marginal(attrs []int) *marginal.Table {
	// Collect the bit columns spanning the query, attribute by attribute
	// (MSB first within each attribute).
	var bits []int
	for _, a := range attrs {
		bits = append(bits, f.bitsOf[a]...)
	}
	b := len(bits)
	cells := 1 << uint(b)

	// Exact binary marginal over the bit columns.
	vars := make([]marginal.Var, b)
	for i, col := range bits {
		vars[i] = marginal.Var{Attr: col}
	}
	t := marginal.Materialize(f.enc, vars)

	// Forward transform, perturb each coefficient (consistently via the
	// global cache), inverse transform.
	WHT(t.P)
	key := make([]int, 0, b)
	for mask := 0; mask < cells; mask++ {
		key = key[:0]
		for i := 0; i < b; i++ {
			// Flat-index bit position p (LSB = 0) corresponds to bit
			// column vars[b-1-p]; enumerate in that order.
			if mask>>uint(i)&1 == 1 {
				key = append(key, bits[b-1-i])
			}
		}
		k := bitKey(key)
		noisy, ok := f.coeffs[k]
		if !ok {
			noisy = t.P[mask] + dp.Laplace(f.rng, f.scale)
			f.coeffs[k] = noisy
		}
		t.P[mask] = noisy
	}
	InverseWHT(t.P)

	// Fold the binary marginal into the original-domain marginal,
	// clamping out-of-domain bit patterns to the top code as the codec
	// does.
	out := marginal.NewTable(f.orig, rawVars(attrs))
	widths := make([]int, len(attrs))
	sizes := make([]int, len(attrs))
	for i, a := range attrs {
		widths[i] = len(f.bitsOf[a])
		sizes[i] = f.orig.Attr(a).Size()
	}
	for cell := 0; cell < cells; cell++ {
		o := 0
		shift := b
		for i := range attrs {
			shift -= widths[i]
			code := cell >> uint(shift) & (1<<uint(widths[i]) - 1)
			if code >= sizes[i] {
				code = sizes[i] - 1
			}
			o = o*sizes[i] + code
		}
		out.P[o] += t.P[cell]
	}
	out.ClampNormalize()
	return out
}

func bitKey(bits []int) string {
	s := append([]int(nil), bits...)
	sort.Ints(s)
	return fmt.Sprint(s)
}
