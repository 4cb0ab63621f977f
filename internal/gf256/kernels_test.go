package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// randBuf returns a deterministic pseudo-random buffer that includes zero
// bytes (the ref kernels branch on them) by zeroing every 7th byte.
func randBuf(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	for i := 0; i < n; i += 7 {
		b[i] = 0
	}
	return b
}

// RefMulSlice is the original byte-at-a-time log/exp MulSlice: the
// correctness reference the table kernels are differentially tested against.
func RefMulSlice(c byte, src, dst []byte) {
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = expTable[lc+int(logTable[s])]
		}
	}
}

// RefMulAddSlice is the original byte-at-a-time log/exp MulAddSlice; see
// RefMulSlice.
func RefMulAddSlice(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}

// Odd lengths exercise the unrolled body plus every possible tail length.
var kernelLens = []int{0, 1, 3, 5, 7, 8, 9, 15, 17, 31, 63, 64, 65, 255, 1021, 4099}

func TestMulTableMatchesLogExp(t *testing.T) {
	for c := 0; c < 256; c++ {
		row := MulTableRow(byte(c))
		for s := 0; s < 256; s++ {
			if got, want := row[s], Mul(byte(c), byte(s)); got != want {
				t.Fatalf("mulTable[%d][%d] = %d, want %d", c, s, got, want)
			}
		}
	}
}

// TestKernelsMatchReference pins the table kernels to the log/exp reference
// for every coefficient and a spread of odd lengths.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		src := randBuf(rng, n)
		base := randBuf(rng, n)
		for c := 0; c < 256; c++ {
			wantMul := make([]byte, n)
			gotMul := make([]byte, n)
			RefMulSlice(byte(c), src, wantMul)
			MulSlice(byte(c), src, gotMul)
			if !bytes.Equal(wantMul, gotMul) {
				t.Fatalf("MulSlice(c=%d, len=%d) diverges from reference", c, n)
			}

			wantAdd := append([]byte(nil), base...)
			gotAdd := append([]byte(nil), base...)
			RefMulAddSlice(byte(c), src, wantAdd)
			MulAddSlice(byte(c), src, gotAdd)
			if !bytes.Equal(wantAdd, gotAdd) {
				t.Fatalf("MulAddSlice(c=%d, len=%d) diverges from reference", c, n)
			}
		}
	}
}

// TestTwoSourceKernelsMatchReference pins Mul2Slice/MulAdd2Slice to two
// applications of the reference kernels across coefficient pairs that cover
// the special values 0 and 1 plus a pseudo-random sample.
func TestTwoSourceKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	coeffPairs := [][2]byte{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 173}, {29, 0}, {1, 92}}
	for i := 0; i < 64; i++ {
		coeffPairs = append(coeffPairs, [2]byte{byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	for _, n := range kernelLens {
		s1 := randBuf(rng, n)
		s2 := randBuf(rng, n)
		base := randBuf(rng, n)
		for _, cp := range coeffPairs {
			c1, c2 := cp[0], cp[1]

			want := make([]byte, n)
			RefMulSlice(c1, s1, want)
			RefMulAddSlice(c2, s2, want)
			got := make([]byte, n)
			Mul2Slice(c1, s1, c2, s2, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("Mul2Slice(c1=%d, c2=%d, len=%d) diverges from reference", c1, c2, n)
			}

			want = append([]byte(nil), base...)
			RefMulAddSlice(c1, s1, want)
			RefMulAddSlice(c2, s2, want)
			got = append([]byte(nil), base...)
			MulAdd2Slice(c1, s1, c2, s2, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("MulAdd2Slice(c1=%d, c2=%d, len=%d) diverges from reference", c1, c2, n)
			}
		}
	}
}

// FuzzMulAddSlice cross-checks the unrolled kernel against the log/exp
// reference on arbitrary coefficient/payload combinations.
func FuzzMulAddSlice(f *testing.F) {
	f.Add(byte(0), []byte{}, byte(0))
	f.Add(byte(1), []byte{1, 2, 3}, byte(7))
	f.Add(byte(173), []byte{0, 255, 0, 17, 4, 9, 2, 254, 13}, byte(99))
	f.Fuzz(func(t *testing.T, c byte, src []byte, seed byte) {
		base := make([]byte, len(src))
		for i := range base {
			base[i] = src[i] ^ seed
		}
		want := append([]byte(nil), base...)
		got := append([]byte(nil), base...)
		RefMulAddSlice(c, src, want)
		MulAddSlice(c, src, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulAddSlice(c=%d, len=%d) diverges from reference", c, len(src))
		}
	})
}

func benchKernel(b *testing.B, fn func(c byte, src, dst []byte)) {
	const size = 10081 // one paper-geometry shard of a 128 KiB entry
	rng := rand.New(rand.NewSource(3))
	src := randBuf(rng, size)
	dst := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(173, src, dst)
	}
}

func BenchmarkMulAddSliceShard(b *testing.B) { benchKernel(b, MulAddSlice) }
func BenchmarkRefMulAddSlice(b *testing.B)   { benchKernel(b, RefMulAddSlice) }
