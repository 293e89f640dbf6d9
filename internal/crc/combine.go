package crc

// Combine computes the CRC of the concatenation A‖B given only
// crcA = CRC(A), crcB = CRC(B) and len(B), in O(log len(B)) time.
//
// The register evolution of a CRC is affine over GF(2): processing n
// zero bytes multiplies the register state by x^(8n) modulo the
// generator.  Writing R₀(M) for the register after message M from a
// zero register and I for the initial register,
//
//	reg(A‖B) = shift(reg(A) ⊕ I, 8·len(B)) ⊕ reg(B)
//
// which is what Combine evaluates after stripping the output
// transformation from both inputs.  This is the width-generic form of
// zlib's crc32_combine.
func (t *Table) Combine(crcA, crcB uint64, lenB int) uint64 {
	if lenB < 0 {
		panic("crc: Combine with negative length")
	}
	regA := t.unfinalizeReg(crcA)
	regB := t.unfinalizeReg(crcB)
	reg := t.shiftReg(regA^t.initReg, uint64(lenB)*8) ^ regB
	return t.finalizeReg(reg)
}

// Zeroes returns the CRC obtained by extending crc with n zero bytes —
// useful on its own for length-extension analysis.
func (t *Table) Zeroes(crc uint64, n int) uint64 {
	if n < 0 {
		panic("crc: Zeroes with negative length")
	}
	// Extending the *message* with zero bytes is exactly update() with
	// zeros; in the linear domain that is an affine map.  Reuse Combine
	// with an empty B: reg' = shift(reg ⊕ I, 8n) ⊕ regEmptyFromInit,
	// where regEmptyFromInit = shift(I, 8n).
	reg := t.unfinalizeReg(crc)
	reg = t.shiftReg(reg^t.initReg, uint64(n)*8) ^ t.shiftReg(t.initReg, uint64(n)*8)
	return t.finalizeReg(reg)
}

// matrix is a linear operator on the 64-bit register state: column i is
// the image of the unit vector 1<<i.
type matrix [64]uint64

// times applies m to vector v.
func (m *matrix) times(v uint64) uint64 {
	var r uint64
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			r ^= m[i]
		}
	}
	return r
}

// square sets dst = m·m.
func (m *matrix) square(dst *matrix) {
	for i := 0; i < 64; i++ {
		dst[i] = m.times(m[i])
	}
}

// shiftOneBit builds the operator that advances the raw register by one
// zero input bit, in the table's internal register alignment.
func (t *Table) shiftOneBit() matrix {
	var m matrix
	p := t.params
	if p.RefIn {
		// Reflected register: reg' = reg>>1, XOR reflected poly if the
		// low bit was set.
		rpoly := Reflect(p.Poly&p.Mask(), p.Width)
		m[0] = rpoly
		for i := 1; i < 64; i++ {
			m[i] = 1 << (i - 1)
		}
		return m
	}
	// Left-aligned register: reg' = reg<<1, XOR left-aligned poly if the
	// top bit was set.
	lpoly := (p.Poly & p.Mask()) << t.shift
	for i := 0; i < 63; i++ {
		m[i] = 1 << (i + 1)
	}
	m[63] = lpoly
	return m
}

// shiftReg multiplies the raw register state by x^nbits modulo the
// generator, via square-and-multiply over the one-bit shift operator.
func (t *Table) shiftReg(reg uint64, nbits uint64) uint64 {
	if nbits == 0 || reg == 0 {
		return reg
	}
	even := t.shiftOneBit() // operator for 2^0 bits... squared below
	var odd matrix
	// Walk the bits of nbits, squaring the operator each step and
	// applying it when the corresponding bit is set.
	cur, next := &even, &odd
	for {
		if nbits&1 != 0 {
			reg = cur.times(reg)
		}
		nbits >>= 1
		if nbits == 0 {
			return reg
		}
		cur.square(next)
		cur, next = next, cur
	}
}
