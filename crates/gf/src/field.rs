//! GF(2^m) field arithmetic.
//!
//! # Backend selection
//!
//! A [`Field`]'s multiplication strategy is a function of `m` alone,
//! resolved **once, at construction** — the hot path never re-detects CPU
//! features or re-derives constants:
//!
//! * **Log/antilog tables** (`m <= 16`): multiplication is two table reads
//!   and one add; inversion is one subtraction in the exponent domain. The
//!   antilog table also lays out the bit-sliced powers the root kernel
//!   reads ([`Field::power_planes`], below).
//! * **Carry-less multiply + Barrett reduction** (`m > 16`): the 128-bit
//!   polynomial product comes from PCLMULQDQ when the CPU supports it
//!   (detected once and cached as a function pointer) or a portable
//!   shift-and-add loop otherwise. The product is reduced modulo the field
//!   polynomial with **Barrett reduction**: a per-field precomputed constant
//!   `mu = floor(x^(2m) / p)` turns reduction into two further carry-less
//!   multiplications and two shifts, replacing the seed's bit-at-a-time
//!   reduction loop (up to `2m - 2` iterations) with straight-line code.
//!
//! [`Field::mul_reference`] — a portable carry-less product reduced one
//! degree at a time — builds the tables and is the one oracle the tests
//! hold both backends to.
//!
//! Batched entry points ([`Field::mul_slice`], [`Field::square_slice`],
//! `Field::scalar_mul_slice`) hoist the backend dispatch out of the loop so
//! callers such as the BCH syndrome accumulator amortize it across a whole
//! slice.
//!
//! [`Field::roots_in_planes`] finds a polynomial's roots among all
//! `2^m − 1` candidates `g^s` of a table-backed field in one pass over
//! [`PowerPlanes`]: the Chien (1964) search turned inside out and bit-sliced
//! (Biham, FSE 1997). This file is the crate's one CPU dispatch: PCLMULQDQ
//! for Barrett, and AVX-512 (`avx512f`, `avx512vl`) for the root kernel,
//! whose `#[inline(always)]` body has a `#[target_feature]` entry, where
//! its lane loops become 256- and 512-bit ternary-logic instructions, and
//! a plain one. Each is detected once, when a field or its planes are
//! built.

/// Maximum supported extension degree.
pub const MAX_M: u32 = 32;
/// Minimum supported extension degree.
pub const MIN_M: u32 = 3;

/// Degrees up to this bound use log/antilog tables for multiplication and
/// inversion; larger degrees use carry-less multiplication with Barrett
/// reduction.
const TABLE_M_LIMIT: u32 = 16;

/// Irreducible (in fact primitive) polynomials of degree `m` over GF(2),
/// indexed by `m - 3`. The `u64` encodes the full polynomial including the
/// leading `x^m` term (bit `m`).
///
/// Every entry is verified to be irreducible by a unit test using the Rabin
/// irreducibility test ([`is_irreducible`]); [`Field::new`] additionally
/// falls back to an exhaustive search should an entry ever be wrong, so the
/// field is always well defined.
const IRREDUCIBLE: [u64; (MAX_M - MIN_M + 1) as usize] = [
    0xB,         // m = 3:  x^3 + x + 1
    0x13,        // m = 4:  x^4 + x + 1
    0x25,        // m = 5:  x^5 + x^2 + 1
    0x43,        // m = 6:  x^6 + x + 1
    0x83,        // m = 7:  x^7 + x + 1
    0x11D,       // m = 8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,       // m = 9:  x^9 + x^4 + 1
    0x409,       // m = 10: x^10 + x^3 + 1
    0x805,       // m = 11: x^11 + x^2 + 1
    0x1053,      // m = 12: x^12 + x^6 + x^4 + x + 1
    0x201B,      // m = 13: x^13 + x^4 + x^3 + x + 1
    0x4443,      // m = 14: x^14 + x^10 + x^6 + x + 1
    0x8003,      // m = 15: x^15 + x + 1
    0x1100B,     // m = 16: x^16 + x^12 + x^3 + x + 1
    0x20009,     // m = 17: x^17 + x^3 + 1
    0x40081,     // m = 18: x^18 + x^7 + 1
    0x80027,     // m = 19: x^19 + x^5 + x^2 + x + 1
    0x100009,    // m = 20: x^20 + x^3 + 1
    0x200005,    // m = 21: x^21 + x^2 + 1
    0x400003,    // m = 22: x^22 + x + 1
    0x800021,    // m = 23: x^23 + x^5 + 1
    0x100001B,   // m = 24: x^24 + x^4 + x^3 + x + 1
    0x2000009,   // m = 25: x^25 + x^3 + 1
    0x4000047,   // m = 26: x^26 + x^6 + x^2 + x + 1
    0x8000027,   // m = 27: x^27 + x^5 + x^2 + x + 1
    0x10000009,  // m = 28: x^28 + x^3 + 1
    0x20000005,  // m = 29: x^29 + x^2 + 1
    0x40000053,  // m = 30: x^30 + x^6 + x^4 + x + 1
    0x80000009,  // m = 31: x^31 + x^3 + 1
    0x100400007, // m = 32: x^32 + x^22 + x^2 + x + 1
];

/// Resolved carry-less 64x64 -> 128 multiplication routine.
type ClmulFn = fn(u64, u64) -> u128;

/// Detect the best carry-less multiply once; the result is installed in the
/// [`Field`] as a function pointer so the hot path pays no detection cost.
fn detect_clmul() -> (ClmulFn, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            return (clmul_pclmul_dispatched, true);
        }
    }
    (clmul_portable, false)
}

/// Whether this CPU runs the root kernel's AVX-512 entry.
fn detect_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Safe front for the PCLMULQDQ path. Only ever installed as a [`Field`]'s
/// `clmul` pointer after [`detect_clmul`] confirmed hardware support, so the
/// feature precondition always holds when it is called.
#[cfg(target_arch = "x86_64")]
fn clmul_pclmul_dispatched(a: u64, b: u64) -> u128 {
    // SAFETY: installed only after runtime detection of `pclmulqdq`.
    unsafe { clmul_pclmul(a, b) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
unsafe fn clmul_pclmul(a: u64, b: u64) -> u128 {
    use std::arch::x86_64::{_mm_clmulepi64_si128, _mm_extract_epi64, _mm_set_epi64x};
    let va = _mm_set_epi64x(0, a as i64);
    let vb = _mm_set_epi64x(0, b as i64);
    let prod = _mm_clmulepi64_si128::<0>(va, vb);
    let lo = _mm_extract_epi64::<0>(prod) as u64;
    let hi = _mm_extract_epi64::<1>(prod) as u64;
    ((hi as u128) << 64) | lo as u128
}

/// Portable carry-less multiplication (shift-and-add).
fn clmul_portable(a: u64, b: u64) -> u128 {
    let mut acc: u128 = 0;
    let mut a = a as u128;
    let mut b = b;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        a <<= 1;
        b >>= 1;
    }
    acc
}

/// Reduce a GF(2)-polynomial `v` modulo `poly` (degree `m`, with its leading
/// bit set) one degree at a time. The result has degree < m. This is the
/// reference reduction; the fast path uses [`Field::barrett_reduce`].
fn reduce_naive(mut v: u128, poly: u64, m: u32) -> u64 {
    if v == 0 {
        return 0;
    }
    let poly = poly as u128;
    // Highest possible degree of v is 2m - 2 < 64 for m <= 32.
    loop {
        let deg = 127 - v.leading_zeros();
        if deg < m {
            break;
        }
        v ^= poly << (deg - m);
        if v == 0 {
            break;
        }
    }
    v as u64
}

/// Barrett constant `mu = floor(x^(2m) / poly)`: GF(2)-polynomial long
/// division of `x^(2m)` by `poly`. `mu` has degree exactly `m`, so it fits a
/// `u64` for every supported field.
fn barrett_mu(poly: u64, m: u32) -> u64 {
    let mut rem: u128 = 1u128 << (2 * m);
    let mut quot: u64 = 0;
    let p = poly as u128;
    while rem != 0 {
        let deg = 127 - rem.leading_zeros();
        if deg < m {
            break;
        }
        let shift = deg - m;
        quot |= 1u64 << shift;
        rem ^= p << shift;
    }
    quot
}

/// Degree of a nonzero GF(2)-polynomial encoded as a bitmask.
fn deg2(p: u64) -> u32 {
    debug_assert!(p != 0);
    63 - p.leading_zeros()
}

/// Remainder of GF(2)-polynomial division `a mod b` (`b != 0`).
fn rem2(mut a: u64, b: u64) -> u64 {
    let db = deg2(b);
    while a != 0 && deg2(a) >= db {
        a ^= b << (deg2(a) - db);
    }
    a
}

/// Greatest common divisor of two GF(2)-polynomials.
fn gcd2(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = rem2(a, b);
        a = b;
        b = r;
    }
    a
}

/// Compute `x^(2^k) mod poly` for a GF(2)-polynomial modulus, starting from `x`.
fn frobenius_iter(poly: u64, m: u32, k: u32) -> u64 {
    let mut cur: u64 = 0b10; // x
    for _ in 0..k {
        // Square cur modulo poly. Squaring a GF(2) polynomial spreads bits out.
        let sq = square_bits(cur);
        cur = reduce_naive(sq, poly, m);
    }
    cur
}

/// Square of a GF(2) polynomial: interleave zero bits.
fn square_bits(a: u64) -> u128 {
    let mut out: u128 = 0;
    let mut i = 0;
    let mut v = a;
    while v != 0 {
        if v & 1 == 1 {
            out |= 1u128 << (2 * i);
        }
        v >>= 1;
        i += 1;
    }
    out
}

/// Rabin irreducibility test for a GF(2)-polynomial of degree `m`.
///
/// `poly` must include the leading `x^m` term. Returns `true` iff `poly` is
/// irreducible over GF(2).
fn is_irreducible(poly: u64, m: u32) -> bool {
    if m == 0 || poly >> m != 1 {
        return false;
    }
    if m == 1 {
        return true;
    }
    // Condition 1: x^(2^m) == x (mod poly).
    let xqm = frobenius_iter(poly, m, m);
    if xqm != 0b10 {
        return false;
    }
    // Condition 2: for every prime divisor q of m, gcd(x^(2^(m/q)) - x, poly) == 1.
    let mut rest = m;
    let mut q = 2;
    let mut primes = Vec::new();
    while q * q <= rest {
        if rest.is_multiple_of(q) {
            primes.push(q);
            while rest.is_multiple_of(q) {
                rest /= q;
            }
        }
        q += 1;
    }
    if rest > 1 {
        primes.push(rest);
    }
    for q in primes {
        let e = m / q;
        let xq = frobenius_iter(poly, m, e);
        let diff = xq ^ 0b10; // x^(2^e) - x
        if diff == 0 || gcd2(poly, diff) != 1 {
            return false;
        }
    }
    true
}

/// Return an irreducible polynomial of degree `m` (including the leading term).
///
/// Uses the built-in table, falling back to an exhaustive search (smallest
/// irreducible polynomial) if the table entry fails verification. The search
/// fallback exists purely as a safety net; the table is unit-tested.
fn irreducible_poly(m: u32) -> u64 {
    assert!(
        (MIN_M..=MAX_M).contains(&m),
        "field degree m must be in {MIN_M}..={MAX_M}, got {m}"
    );
    let cand = IRREDUCIBLE[(m - MIN_M) as usize];
    if is_irreducible(cand, m) {
        return cand;
    }
    // Safety net: smallest irreducible polynomial of degree m.
    let base = 1u64 << m;
    for low in 1..(1u64 << m) {
        let p = base | low;
        if is_irreducible(p, m) {
            return p;
        }
    }
    unreachable!("an irreducible polynomial of degree {m} always exists")
}

/// The backend a [`Field`] runs on: tables iff `m <= 16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Tables,
    Barrett,
}

/// A binary extension field GF(2^m), `3 <= m <= 32`.
///
/// Elements are `u64` values whose low `m` bits hold the polynomial-basis
/// coefficients. All operations panic (in debug builds) if an operand has
/// bits above `m` set. See the module docs for how the multiplication
/// backend is chosen.
#[derive(Clone)]
pub struct Field {
    m: u32,
    poly: u64,
    order: u64,
    backend: Backend,
    /// Carry-less multiply resolved once at construction (PCLMUL or portable).
    clmul: ClmulFn,
    /// `true` when `clmul` is the hardware PCLMULQDQ path.
    hw_clmul: bool,
    /// Barrett constant `floor(x^(2m) / poly)`.
    mu: u64,
    /// antilog table: exp[i] = g^i for the generator g (only for small m);
    /// the cycle is stored twice so exp[la + lb] never needs a modulo.
    exp: Vec<u32>,
    /// log table: log[exp[i]] = i (only for small m; log[0] unused)
    log: Vec<u32>,
    /// The generator the tables are built on (0 when no tables).
    generator: u64,
}

impl std::fmt::Debug for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Field")
            .field("m", &self.m)
            .field("poly", &format_args!("{:#x}", self.poly))
            .field("backend", &self.backend_name())
            .finish()
    }
}

impl Field {
    /// Construct GF(2^m) over the crate's irreducible polynomial of degree
    /// `m`: log/antilog tables when `m <= 16`, carry-less multiplication
    /// with Barrett reduction otherwise (see the module docs).
    ///
    /// # Panics
    /// Panics if `m` is outside `3..=32`.
    pub fn new(m: u32) -> Self {
        let poly = irreducible_poly(m);
        let backend = if m <= TABLE_M_LIMIT {
            Backend::Tables
        } else {
            Backend::Barrett
        };
        let (clmul, hw_clmul) = detect_clmul();
        let mut field = Field {
            m,
            poly,
            order: 1u64 << m,
            backend,
            clmul,
            hw_clmul,
            mu: barrett_mu(poly, m),
            exp: Vec::new(),
            log: Vec::new(),
            generator: 0,
        };
        if backend == Backend::Tables {
            field.build_tables();
        }
        field
    }

    /// Build log/antilog tables. The primitive element used is the smallest
    /// element (>= 2, i.e. `x` or a small polynomial) that generates the
    /// multiplicative group.
    fn build_tables(&mut self) {
        let size = self.order as usize;
        let group = self.order - 1;
        // Find a generator by trial: try x, then x+1, ... Most table entries
        // are primitive polynomials so x itself generates.
        let mut generator = 2u64;
        loop {
            if self.multiplicative_order_slow(generator) == group {
                break;
            }
            generator += 1;
            debug_assert!(generator < self.order, "no generator found (impossible)");
        }
        let mut exp = vec![0u32; 2 * size];
        let mut log = vec![0u32; size];
        let mut cur = 1u64;
        for (i, e) in exp.iter_mut().take(group as usize).enumerate() {
            *e = cur as u32;
            log[cur as usize] = i as u32;
            cur = self.mul_reference(cur, generator);
        }
        // Duplicate the cycle so exp[(la + lb)] never needs a modulo.
        for i in group as usize..2 * size {
            exp[i] = exp[i - group as usize];
        }
        self.exp = exp;
        self.log = log;
        self.generator = generator;
    }

    fn multiplicative_order_slow(&self, a: u64) -> u64 {
        if a == 0 {
            return 0;
        }
        let mut cur = a;
        let mut ord = 1;
        while cur != 1 {
            cur = self.mul_reference(cur, a);
            ord += 1;
        }
        ord
    }

    /// The extension degree `m`.
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of field elements, `2^m`.
    #[inline]
    pub fn order(&self) -> u64 {
        self.order
    }

    /// Number of nonzero field elements, `2^m - 1`.
    #[inline]
    pub fn nonzero_count(&self) -> u64 {
        self.order - 1
    }

    /// Name of the resolved multiplication backend, for diagnostics and the
    /// benchmark reports: `"tables"`, `"clmul-barrett"` or
    /// `"portable-barrett"`.
    fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Tables => "tables",
            Backend::Barrett => {
                if self.hw_clmul {
                    "clmul-barrett"
                } else {
                    "portable-barrett"
                }
            }
        }
    }

    /// The generator whose powers the log/antilog tables enumerate, if this
    /// field is table-backed. Its powers are the candidates of
    /// [`Field::roots_in_planes`].
    pub fn generator(&self) -> Option<u64> {
        if self.generator == 0 {
            None
        } else {
            Some(self.generator)
        }
    }

    /// `true` if `a` is a valid element (fits in `m` bits).
    #[inline]
    pub fn contains(&self, a: u64) -> bool {
        a < self.order
    }

    #[inline]
    fn check(&self, a: u64) {
        debug_assert!(
            self.contains(a),
            "element {a:#x} out of field GF(2^{})",
            self.m
        );
    }

    /// Field addition (XOR).
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        self.check(a);
        self.check(b);
        a ^ b
    }

    /// Barrett reduction of a carry-less product (degree <= 2m - 2) modulo
    /// the field polynomial: two carry-less multiplications by the
    /// precomputed `mu`, no data-dependent loop.
    ///
    /// Exactness: write `c = q·p + r`. With `mu = floor(x^(2m)/p)` one gets
    /// `floor(floor(c/x^m)·mu / x^m) = q` for every `deg c <= 2m - 1`, so the
    /// final XOR cancels all bits of degree >= m.
    #[inline]
    fn barrett_reduce(&self, c: u128) -> u64 {
        // deg c <= 2m - 2 <= 62, so c fits in 64 bits.
        let c = c as u64;
        let q1 = c >> self.m;
        let q2 = (self.clmul)(q1, self.mu) as u64;
        let q = q2 >> self.m;
        let r = c ^ (self.clmul)(q, self.poly) as u64;
        debug_assert!(r < self.order, "Barrett reduction out of range");
        r
    }

    /// The reference multiplication: a portable shift-and-add carry-less
    /// product reduced one degree at a time, regardless of the field's
    /// backend. It builds the log/antilog tables and is the oracle the
    /// tests hold both backends to.
    pub fn mul_reference(&self, a: u64, b: u64) -> u64 {
        self.check(a);
        self.check(b);
        reduce_naive(clmul_portable(a, b), self.poly, self.m)
    }

    /// Fused multiply + Barrett reduce on the hardware path: all three
    /// PCLMULQDQ issues inline into a single `target_feature` function, so a
    /// Barrett multiplication is one call with no function-pointer hops.
    ///
    /// # Safety
    /// Callers must ensure `self.hw_clmul` is set (PCLMULQDQ detected).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn mul_barrett_hw(&self, a: u64, b: u64) -> u64 {
        let c = clmul_pclmul(a, b) as u64;
        let q = (clmul_pclmul(c >> self.m, self.mu) as u64) >> self.m;
        c ^ clmul_pclmul(q, self.poly) as u64
    }

    /// Pairwise slice multiply on the hardware Barrett path; the whole loop
    /// lives inside one `target_feature` region.
    ///
    /// # Safety
    /// Callers must ensure `self.hw_clmul` is set (PCLMULQDQ detected).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn mul_slice_hw(&self, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            self.check(*d);
            self.check(s);
            *d = self.mul_barrett_hw(*d, s);
        }
    }

    /// Scalar slice multiply on the hardware Barrett path.
    ///
    /// # Safety
    /// Callers must ensure `self.hw_clmul` is set (PCLMULQDQ detected).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn scalar_mul_slice_hw(&self, dst: &mut [u64], c: u64) {
        for d in dst.iter_mut() {
            self.check(*d);
            *d = self.mul_barrett_hw(*d, c);
        }
    }

    /// In-place slice square on the hardware Barrett path.
    ///
    /// # Safety
    /// Callers must ensure `self.hw_clmul` is set (PCLMULQDQ detected).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn square_slice_hw(&self, vals: &mut [u64]) {
        for v in vals.iter_mut() {
            self.check(*v);
            *v = self.mul_barrett_hw(*v, *v);
        }
    }

    #[inline]
    fn mul_tables(&self, a: u64, b: u64) -> u64 {
        if a == 0 || b == 0 {
            return 0;
        }
        let la = self.log[a as usize] as usize;
        let lb = self.log[b as usize] as usize;
        self.exp[la + lb] as u64
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.check(a);
        self.check(b);
        match self.backend {
            Backend::Tables => self.mul_tables(a, b),
            // Barrett handles zero operands for free: the product is zero
            // and reduces to zero, so no branch is needed.
            Backend::Barrett => {
                #[cfg(target_arch = "x86_64")]
                if self.hw_clmul {
                    // SAFETY: hw_clmul is only set after runtime detection.
                    return unsafe { self.mul_barrett_hw(a, b) };
                }
                self.barrett_reduce((self.clmul)(a, b))
            }
        }
    }

    /// Field squaring.
    #[inline]
    pub fn square(&self, a: u64) -> u64 {
        self.check(a);
        match self.backend {
            Backend::Tables => {
                if a == 0 {
                    return 0;
                }
                let la = self.log[a as usize] as usize;
                self.exp[la + la] as u64
            }
            // A carry-less self-product is exactly the GF(2) square.
            Backend::Barrett => {
                #[cfg(target_arch = "x86_64")]
                if self.hw_clmul {
                    // SAFETY: hw_clmul is only set after runtime detection.
                    return unsafe { self.mul_barrett_hw(a, a) };
                }
                self.barrett_reduce((self.clmul)(a, a))
            }
        }
    }

    /// Pairwise in-place multiplication: `dst[i] <- dst[i] * src[i]`.
    ///
    /// The backend dispatch is hoisted out of the loop, which is what makes
    /// this the building block for the batched syndrome kernels in `bch`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn mul_slice(&self, dst: &mut [u64], src: &[u64]) {
        assert_eq!(dst.len(), src.len(), "mul_slice length mismatch");
        match self.backend {
            Backend::Tables => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = self.mul_tables(*d, s);
                }
            }
            Backend::Barrett => {
                #[cfg(target_arch = "x86_64")]
                if self.hw_clmul {
                    // SAFETY: hw_clmul is only set after runtime detection.
                    unsafe { self.mul_slice_hw(dst, src) };
                    return;
                }
                let clmul = self.clmul;
                for (d, &s) in dst.iter_mut().zip(src) {
                    self.check(*d);
                    self.check(s);
                    *d = self.barrett_reduce(clmul(*d, s));
                }
            }
        }
    }

    /// Multiply every element of `dst` by the scalar `c` in place.
    pub(crate) fn scalar_mul_slice(&self, dst: &mut [u64], c: u64) {
        self.check(c);
        match self.backend {
            Backend::Tables => {
                if c == 0 {
                    dst.fill(0);
                    return;
                }
                let lc = self.log[c as usize] as usize;
                for d in dst.iter_mut() {
                    if *d != 0 {
                        *d = self.exp[self.log[*d as usize] as usize + lc] as u64;
                    }
                }
            }
            Backend::Barrett => {
                #[cfg(target_arch = "x86_64")]
                if self.hw_clmul {
                    // SAFETY: hw_clmul is only set after runtime detection.
                    unsafe { self.scalar_mul_slice_hw(dst, c) };
                    return;
                }
                let clmul = self.clmul;
                for d in dst.iter_mut() {
                    self.check(*d);
                    *d = self.barrett_reduce(clmul(*d, c));
                }
            }
        }
    }

    /// Square every element of `vals` in place.
    pub fn square_slice(&self, vals: &mut [u64]) {
        match self.backend {
            Backend::Barrett => {
                #[cfg(target_arch = "x86_64")]
                if self.hw_clmul {
                    // SAFETY: hw_clmul is only set after runtime detection.
                    unsafe { self.square_slice_hw(vals) };
                    return;
                }
                let clmul = self.clmul;
                for v in vals.iter_mut() {
                    self.check(*v);
                    *v = self.barrett_reduce(clmul(*v, *v));
                }
            }
            Backend::Tables => {
                for v in vals.iter_mut() {
                    *v = self.square(*v);
                }
            }
        }
    }

    /// Exponentiation `a^e` (with `0^0 == 1`).
    fn pow(&self, a: u64, mut e: u64) -> u64 {
        self.check(a);
        if e == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        let mut base = a;
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.square(base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `a == 0`.
    pub fn inv(&self, a: u64) -> u64 {
        self.check(a);
        assert!(a != 0, "zero has no multiplicative inverse");
        if self.backend == Backend::Tables {
            let la = self.log[a as usize] as u64;
            let group = self.order - 1;
            self.exp[((group - la) % group) as usize] as u64
        } else {
            // a^(2^m - 2)
            self.pow(a, self.order - 2)
        }
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    #[inline]
    pub fn div(&self, a: u64, b: u64) -> u64 {
        self.mul(a, self.inv(b))
    }

    /// The trace map `Tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1))`, which takes
    /// values in GF(2) (returned as 0 or 1). Used by the Berlekamp trace
    /// root-finding algorithm in the `bch` crate.
    pub fn trace(&self, a: u64) -> u64 {
        self.check(a);
        let mut acc = a;
        let mut cur = a;
        for _ in 1..self.m {
            cur = self.square(cur);
            acc ^= cur;
        }
        debug_assert!(acc == 0 || acc == 1, "trace must land in GF(2)");
        acc
    }

    /// The bit-sliced powers `g^(js)`, `j = 1..=t`, of every candidate
    /// `g^s` of this field ([`PowerPlanes`]), which
    /// [`Field::roots_in_planes`] evaluates polynomials of degree up to `t`
    /// over: `t·m·⌈(2^m − 1)/64⌉` words, built from the antilog table.
    /// `None` when the field has no log tables.
    pub fn power_planes(&self, t: usize) -> Option<PowerPlanes> {
        if self.backend != Backend::Tables {
            return None;
        }
        let (m, n) = (self.m as usize, self.nonzero_count() as usize);
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; t * m * words];
        for (j, planes) in (1..=t).zip(bits.chunks_exact_mut(m * words)) {
            // Lane s holds g^(js); past the last candidate the cycle goes on.
            let step = j % n;
            let mut exponent = 0;
            for w in 0..words {
                let mut word = [0u64; TABLE_M_LIMIT as usize];
                for lane in 0..64 {
                    let power = self.exp[exponent] as u64;
                    for (b, bits) in word[..m].iter_mut().enumerate() {
                        *bits |= (power >> b & 1) << lane;
                    }
                    exponent += step;
                    if exponent >= n {
                        exponent -= n;
                    }
                }
                for (plane, &bits) in planes.chunks_exact_mut(words).zip(&word) {
                    plane[w] = bits;
                }
            }
        }
        Some(PowerPlanes {
            m: self.m,
            t,
            words,
            bits,
            kernel: plane_kernel(self.m, detect_avx512()),
        })
    }

    /// The roots of the polynomial with ascending coefficients `poly` among
    /// the nonzero elements, pushed onto `roots` in the order a Chien
    /// search meets them — `g^0, g^1, …`, ascending in their logarithm:
    /// one evaluation at every candidate at once ([`PowerPlanes`]). A
    /// repeated root is pushed once.
    ///
    /// # Panics
    /// Panics if `poly` is empty, has more than `t + 1` coefficients for
    /// the `t` the planes were built for, or `planes` belong to a field of
    /// another degree.
    pub fn roots_in_planes(&self, planes: &PowerPlanes, poly: &[u64], roots: &mut Vec<u64>) {
        let fits = planes.m == self.m && !poly.is_empty() && poly.len() <= planes.t + 1;
        assert!(fits, "the planes do not cover the polynomial");
        (planes.kernel)(self, planes, poly, roots);
    }
}

/// An entry of the root kernel: see [`Field::roots_in_planes`].
type PlaneKernel = fn(&Field, &PowerPlanes, &[u64], &mut Vec<u64>);

/// The bit-sliced powers of a table-backed field's generator `g` that
/// [`Field::roots_in_planes`] reads, built by [`Field::power_planes`]: for
/// each power `j = 1..=t` and bit `b < m`, one plane of `words` words whose
/// lane `s` — bit `s % 64` of word `s / 64` — is bit `b` of `g^(js)`.
///
/// A polynomial `Σ c_j x^j` is evaluated at every candidate at once:
/// multiplying by `c_j` is GF(2)-linear, the `m × m` bit matrix of the basis
/// products `c_j·x^b`, so each plane `(j, b)` is XORed into the accumulated
/// bit `k` of the value where bit `k` of `c_j·x^b` is set; the candidates
/// where all `m` accumulated bits read zero are the roots. The planes also
/// hold the kernel entry this CPU runs: an AVX-512 one where the CPU has
/// `avx512f` and `avx512vl`, a plain one otherwise, the same roots either
/// way.
#[derive(Debug, Clone)]
pub struct PowerPlanes {
    m: u32,
    t: usize,
    words: usize,
    /// Plane `(j, b)` is the `words` words from `((j − 1)·m + b)·words`.
    bits: Vec<u64>,
    kernel: PlaneKernel,
}

impl PowerPlanes {
    /// These planes once for each entry of the root kernel this CPU runs,
    /// by name: `"plain"` everywhere, and `"avx512"` where the CPU has
    /// `avx512f` and `avx512vl`. For tests that hold every entry to an
    /// oracle.
    #[doc(hidden)]
    pub fn entries(&self) -> Vec<(&'static str, PowerPlanes)> {
        let on = |avx512| PowerPlanes {
            kernel: plane_kernel(self.m, avx512),
            ..self.clone()
        };
        let mut all = vec![("plain", on(false))];
        if detect_avx512() {
            all.push(("avx512", on(true)));
        }
        all
    }
}

/// The root kernel's entry for GF(2^m) on this CPU: its body instantiated
/// for the degree `M = m` and `L` words (`64·L` candidates) a step, four
/// once the planes are that long (with eight, the accumulators of
/// m ≥ 9 outgrow the registers).
fn plane_kernel(m: u32, avx512: bool) -> PlaneKernel {
    fn entry<const M: usize, const L: usize>(avx512: bool) -> PlaneKernel {
        match avx512 {
            #[cfg(target_arch = "x86_64")]
            true => roots_avx512_dispatched::<M, L>,
            _ => roots_body::<M, L>,
        }
    }
    match m {
        3 => entry::<3, 1>(avx512),
        4 => entry::<4, 1>(avx512),
        5 => entry::<5, 1>(avx512),
        6 => entry::<6, 1>(avx512),
        7 => entry::<7, 2>(avx512),
        8 => entry::<8, 4>(avx512),
        9 => entry::<9, 4>(avx512),
        10 => entry::<10, 4>(avx512),
        11 => entry::<11, 4>(avx512),
        12 => entry::<12, 4>(avx512),
        13 => entry::<13, 4>(avx512),
        14 => entry::<14, 4>(avx512),
        15 => entry::<15, 4>(avx512),
        _ => entry::<16, 4>(avx512),
    }
}

/// The body of both root-kernel entries over GF(2^M), `L` plane words at a
/// time: the `M` accumulated planes of `poly`'s value start as the
/// constant coefficient's bits, and each further coefficient `c_j` adds
/// plane `(j, b)` into accumulator `k` where bit `k` of `c_j·x^b` is set.
/// A candidate is a root where every accumulator reads zero. Each word
/// keeps its `M` accumulators side by side, so that one plane word meets
/// all `M` masks of a basis product at once.
#[inline(always)]
fn roots_body<const M: usize, const L: usize>(
    f: &Field,
    planes: &PowerPlanes,
    poly: &[u64],
    roots: &mut Vec<u64>,
) {
    let words = planes.words;
    let n = f.nonzero_count() as usize;
    // A basis product spread over M lanes: lane k is all ones iff bit k is.
    let spread = |v: u64| -> [u64; M] {
        std::array::from_fn(|k| if v & 1 << k != 0 { u64::MAX } else { 0 })
    };
    for chunk in (0..words).step_by(L) {
        let mut acc = [spread(poly[0]); L];
        for (j, &c) in poly.iter().enumerate().skip(1) {
            if c == 0 {
                continue;
            }
            let mut basis = c; // c·x^b
            for b in 0..M {
                let plane = &planes.bits[((j - 1) * M + b) * words + chunk..][..L];
                let mask = spread(basis);
                for (a, &p) in acc.iter_mut().zip(plane) {
                    for (a, &mask) in a.iter_mut().zip(&mask) {
                        *a ^= p & mask;
                    }
                }
                basis <<= 1;
                if basis >> M != 0 {
                    basis ^= f.poly;
                }
            }
        }
        for (l, a) in acc.iter().enumerate() {
            let first = (chunk + l) * 64;
            // The lanes past the last candidate repeat earlier ones.
            let lanes = u64::MAX >> (64 - (n - first).min(64));
            let mut zeros = !a.iter().fold(0, |any, &a| any | a) & lanes;
            while zeros != 0 {
                roots.push(f.exp[first + zeros.trailing_zeros() as usize] as u64);
                zeros &= zeros - 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn roots_avx512<const M: usize, const L: usize>(
    f: &Field,
    planes: &PowerPlanes,
    poly: &[u64],
    roots: &mut Vec<u64>,
) {
    roots_body::<M, L>(f, planes, poly, roots)
}

/// Safe front for [`roots_avx512`]. Only ever installed as a
/// [`PowerPlanes`] kernel after [`detect_avx512`] found its features, so
/// they hold whenever it is called.
#[cfg(target_arch = "x86_64")]
fn roots_avx512_dispatched<const M: usize, const L: usize>(
    f: &Field,
    planes: &PowerPlanes,
    poly: &[u64],
    roots: &mut Vec<u64>,
) {
    // SAFETY: installed only after runtime detection of avx512f and avx512vl.
    unsafe { roots_avx512::<M, L>(f, planes, poly, roots) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_entries_are_irreducible() {
        for m in MIN_M..=MAX_M {
            let p = IRREDUCIBLE[(m - MIN_M) as usize];
            assert!(
                is_irreducible(p, m),
                "table polynomial {p:#x} for m={m} is not irreducible"
            );
        }
    }

    #[test]
    fn reducible_polynomials_are_rejected() {
        // x^4 + 1 = (x+1)^4 is reducible.
        assert!(!is_irreducible(0b10001, 4));
        // x^2 factors trivially.
        assert!(!is_irreducible(0b100, 2));
        // x^2 + x + 1 is the unique irreducible quadratic.
        assert!(is_irreducible(0b111, 2));
        // wrong degree encoding
        assert!(!is_irreducible(0b111, 3));
    }

    #[test]
    fn small_field_mul_matches_reference() {
        let f = Field::new(8);
        for a in 0..256u64 {
            for b in 0..256u64 {
                assert_eq!(f.mul(a, b), f.mul_reference(a, b), "mismatch at {a} * {b}");
            }
        }
    }

    #[test]
    fn barrett_mu_has_degree_m() {
        for m in MIN_M..=MAX_M {
            let poly = irreducible_poly(m);
            let mu = barrett_mu(poly, m);
            assert_eq!(deg2(mu), m, "mu degree wrong for m={m}");
        }
    }

    #[test]
    fn gf16_inverse_and_identity() {
        let f = Field::new(4);
        for a in 1..16u64 {
            let inv = f.inv(a);
            assert_eq!(f.mul(a, inv), 1, "a * a^-1 != 1 for a={a}");
            assert_eq!(f.mul(a, 1), a);
            assert_eq!(f.mul(a, 0), 0);
        }
    }

    #[test]
    fn large_field_inverse() {
        let f = Field::new(32);
        for a in [1u64, 2, 3, 0xDEADBEEF, 0xFFFF_FFFE, 0x8000_0001] {
            let inv = f.inv(a);
            assert_eq!(f.mul(a, inv), 1, "a * a^-1 != 1 for a={a:#x}");
        }
    }

    #[test]
    fn distributivity_small_field() {
        let f = Field::new(6);
        for a in 0..64u64 {
            for b in 0..64u64 {
                let c = (a * 31 + b * 17 + 5) % 64;
                assert_eq!(
                    f.mul(a, f.add(b, c)),
                    f.add(f.mul(a, b), f.mul(a, c)),
                    "distributivity failed at a={a}, b={b}, c={c}"
                );
            }
        }
    }

    #[test]
    fn square_equals_self_mul() {
        for m in [3u32, 8, 11, 13, 17, 24, 32] {
            let f = Field::new(m);
            let samples: Vec<u64> = (0..200)
                .map(|i| (i * 2654435761u64 + 12345) % f.order())
                .collect();
            for a in samples {
                assert_eq!(
                    f.square(a),
                    f.mul(a, a),
                    "square mismatch for a={a:#x}, m={m}"
                );
            }
        }
    }

    #[test]
    fn slice_ops_match_scalar_ops() {
        // One table-backed field, two Barrett ones.
        for m in [11u32, 17, 32] {
            let f = Field::new(m);
            let xs: Vec<u64> = (0..257u64).map(|i| (i * 48271 + 11) % f.order()).collect();
            let ys: Vec<u64> = (0..257u64).map(|i| (i * 69621 + 3) % f.order()).collect();
            let mut prod = xs.clone();
            f.mul_slice(&mut prod, &ys);
            for i in 0..xs.len() {
                assert_eq!(prod[i], f.mul(xs[i], ys[i]), "mul_slice[{i}] m={m}");
            }
            let mut sq = xs.clone();
            f.square_slice(&mut sq);
            for i in 0..xs.len() {
                assert_eq!(sq[i], f.square(xs[i]), "square_slice[{i}] m={m}");
            }
            let mut scaled = xs.clone();
            f.scalar_mul_slice(&mut scaled, 0x2A7);
            for i in 0..xs.len() {
                assert_eq!(
                    scaled[i],
                    f.mul(xs[i], 0x2A7),
                    "scalar_mul_slice[{i}] m={m}"
                );
            }
        }
    }

    /// Every root of `poly` among the nonzero elements, ascending in their
    /// logarithm, by evaluation at each candidate through the reference
    /// multiplication: the oracle of the root kernel.
    fn naive_roots(f: &Field, poly: &[u64]) -> Vec<u64> {
        let g = f.generator().expect("a table-backed field");
        std::iter::successors(Some(1u64), |&x| Some(f.mul_reference(x, g)))
            .take(f.nonzero_count() as usize)
            .filter(|&x| {
                poly.iter()
                    .rev()
                    .fold(0, |acc, &c| f.mul_reference(acc, x) ^ c)
                    == 0
            })
            .collect()
    }

    #[test]
    fn every_plane_entry_finds_the_naive_roots_at_every_tabled_m() {
        // Each table-backed m; per m, polynomials with the root 1 (the
        // candidate the lanes past the last one repeat), a zero constant
        // term, the full degree bound, and none at all.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        for m in MIN_M..=TABLE_M_LIMIT {
            let f = Field::new(m);
            let t = if m <= 11 { 12 } else { 3 };
            let planes = f.power_planes(t).expect("a table-backed field");
            let mut polys = vec![vec![1, 1], vec![0, 1], vec![1], vec![0; t + 1]];
            for degree in 1..=t {
                let mut poly: Vec<u64> = (0..=degree).map(|_| next() % f.order()).collect();
                polys.push(poly.clone());
                // Force the root 1: the constant is the sum of the others.
                poly[0] = poly[1..].iter().fold(0, |acc, &c| acc ^ c);
                polys.push(poly);
            }
            let entries = planes.entries();
            if m == MIN_M {
                let names: Vec<_> = entries.iter().map(|e| e.0).collect();
                println!("plane entries checked: {names:?}");
            }
            for (name, planes) in entries {
                for poly in &polys {
                    let mut roots = Vec::new();
                    f.roots_in_planes(&planes, poly, &mut roots);
                    assert_eq!(roots, naive_roots(&f, poly), "{name} m={m} {poly:?}");
                }
            }
        }
        assert!(Field::new(17).power_planes(4).is_none());
    }

    #[test]
    fn a_field_has_log_tables_iff_m_is_at_most_16() {
        for m in MIN_M..=MAX_M {
            let f = Field::new(m);
            let tabled = m <= 16;
            assert_eq!(f.generator().is_some(), tabled, "m={m}");
            if tabled {
                assert_eq!(f.backend_name(), "tables");
            } else {
                assert!(f.backend_name().ends_with("-barrett"), "m={m}");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let f = Field::new(10);
        let a = 0x2AB;
        let mut acc = 1u64;
        for e in 0..50u64 {
            assert_eq!(f.pow(a, e), acc, "pow mismatch at exponent {e}");
            acc = f.mul(acc, a);
        }
    }

    #[test]
    fn frobenius_is_additive_and_trace_in_gf2() {
        let f = Field::new(12);
        for i in 0..500u64 {
            let a = (i * 48271 + 7) % f.order();
            let b = (i * 69621 + 3) % f.order();
            assert_eq!(f.square(f.add(a, b)), f.add(f.square(a), f.square(b)));
            let t = f.trace(a);
            assert!(t == 0 || t == 1);
        }
    }

    #[test]
    fn order_and_bounds() {
        let f = Field::new(11);
        assert_eq!(f.order(), 2048);
        assert_eq!(f.nonzero_count(), 2047);
        assert_eq!(f.m(), 11);
        assert!(f.contains(2047));
        assert!(!f.contains(2048));
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        Field::new(8).inv(0);
    }

    #[test]
    #[should_panic(expected = "field degree m must be in")]
    fn out_of_range_degree_panics() {
        Field::new(2);
    }
}
