//! Generalized semirings (§3.2 "Generalized semirings").
//!
//! GraphBLAS replaces `(ℝ, ×, +, 0)` with an arbitrary `(D, ⊗, ⊕, I)`:
//! BFS runs over the Boolean semiring `({0,1}, AND, OR, 0)`, SSSP over
//! min-plus, PageRank over plus-times. Two properties of the ⊕ monoid are
//! surfaced explicitly because the paper's optimizations key off them:
//!
//! * **annihilator** — an element `z` with `z ⊕ x = z` for all `x`. When it
//!   exists, a row reduction may stop as soon as the accumulator reaches
//!   `z`; that is the paper's *early-exit* (Optimization 3), the
//!   short-circuit `OR` of Algorithm 2 line 8, generalized beyond Booleans.
//! * **`MULT_IGNORES_A`** — the ⊗ operator never reads the matrix value.
//!   When true, kernels skip loading matrix values; with a constant
//!   [`Semiring::product_hint`] the column kernel merges no values at all
//!   (it claims output vertices instead); that is *structure-only*
//!   (Optimization 5).

use std::fmt::Debug;

/// Element types storable in vectors and matrices.
pub trait Scalar: Copy + Send + Sync + PartialEq + Debug + 'static {}
impl<T: Copy + Send + Sync + PartialEq + Debug + 'static> Scalar for T {}

/// A commutative monoid `(T, ⊕, identity)` used as the "add" of a semiring.
pub trait Monoid<T: Scalar>: Copy + Send + Sync {
    /// The identity element `I` (the semiring's "zero").
    fn identity(&self) -> T;
    /// The associative, commutative combine `⊕`.
    fn op(&self, a: T, b: T) -> T;
    /// Absorbing element `z` (with `z ⊕ x = z` ∀x), when one exists.
    /// Reaching it permits early-exit from a reduction.
    fn annihilator(&self) -> Option<T> {
        None
    }
}

/// A semiring `(D, ⊗, ⊕, I)`: `mult` maps a matrix element of type `A` and
/// a vector element of type `X` to a product of type `Y`; `Add` reduces the
/// products.
pub trait Semiring<A: Scalar, X: Scalar, Y: Scalar>: Copy + Send + Sync {
    /// The ⊕ monoid over the output domain.
    type Add: Monoid<Y>;
    /// Access the ⊕ monoid instance.
    fn add_monoid(&self) -> Self::Add;
    /// The ⊗ operator.
    fn mult(&self, a: A, x: X) -> Y;
    /// `true` when ⊗ ignores its matrix operand, enabling structure-only.
    const MULT_IGNORES_A: bool = false;
    /// When `Some(c)`, the caller may assume every product of a stored
    /// matrix entry with an *explicit* input entry equals `c`. This is the
    /// structure-only contract (§5.5): with it, the output pattern is all
    /// the column kernel has to find, so it drops the value payload and
    /// runs the claim kernel — a mask test and an atomic claim per
    /// expanded edge, then a sort of the claimed vertices only.
    /// `BoolStructure` over an all-`true` BFS frontier satisfies it with
    /// `c = true`.
    fn product_hint(&self) -> Option<Y> {
        None
    }
}

/// Numeric scalar support needed by the stock monoids/semirings, avoiding
/// an external `num-traits` dependency.
pub trait SemiringNum: Scalar + PartialOrd {
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Largest representable value (the min-plus identity "∞").
    const MAX_VALUE: Self;
    /// Smallest representable value (the max identity "−∞").
    const MIN_VALUE: Self;
    /// Addition.
    fn add(self, other: Self) -> Self;
    /// Multiplication.
    fn mul(self, other: Self) -> Self;
    /// Minimum.
    fn min_of(self, other: Self) -> Self;
    /// Maximum.
    fn max_of(self, other: Self) -> Self;
}

macro_rules! impl_semiring_num_int {
    ($($t:ty),*) => {$(
        impl SemiringNum for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const MAX_VALUE: Self = <$t>::MAX;
            const MIN_VALUE: Self = <$t>::MIN;
            #[inline] fn add(self, other: Self) -> Self { self.saturating_add(other) }
            #[inline] fn mul(self, other: Self) -> Self { self.saturating_mul(other) }
            #[inline] fn min_of(self, other: Self) -> Self { self.min(other) }
            #[inline] fn max_of(self, other: Self) -> Self { self.max(other) }
        }
    )*};
}
impl_semiring_num_int!(i32, i64, u32, u64, usize);

macro_rules! impl_semiring_num_float {
    ($($t:ty),*) => {$(
        impl SemiringNum for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const MAX_VALUE: Self = <$t>::INFINITY;
            const MIN_VALUE: Self = <$t>::NEG_INFINITY;
            #[inline] fn add(self, other: Self) -> Self { self + other }
            #[inline] fn mul(self, other: Self) -> Self { self * other }
            #[inline] fn min_of(self, other: Self) -> Self { self.min(other) }
            #[inline] fn max_of(self, other: Self) -> Self { self.max(other) }
        }
    )*};
}
impl_semiring_num_float!(f32, f64);

// ---------------------------------------------------------------------------
// Monoids
// ---------------------------------------------------------------------------

/// Logical OR over `bool` — identity `false`, annihilator `true`.
#[derive(Copy, Clone, Debug, Default)]
pub struct OrMonoid;
impl Monoid<bool> for OrMonoid {
    #[inline]
    fn identity(&self) -> bool {
        false
    }
    #[inline]
    fn op(&self, a: bool, b: bool) -> bool {
        a || b
    }
    #[inline]
    fn annihilator(&self) -> Option<bool> {
        Some(true)
    }
}

/// Logical AND over `bool` — identity `true`, annihilator `false`.
#[derive(Copy, Clone, Debug, Default)]
pub struct AndMonoid;
impl Monoid<bool> for AndMonoid {
    #[inline]
    fn identity(&self) -> bool {
        true
    }
    #[inline]
    fn op(&self, a: bool, b: bool) -> bool {
        a && b
    }
    #[inline]
    fn annihilator(&self) -> Option<bool> {
        Some(false)
    }
}

/// Numeric `+` monoid — identity `0`, no annihilator.
#[derive(Copy, Clone, Debug, Default)]
pub struct PlusMonoid;
impl<T: SemiringNum> Monoid<T> for PlusMonoid {
    #[inline]
    fn identity(&self) -> T {
        T::ZERO
    }
    #[inline]
    fn op(&self, a: T, b: T) -> T {
        a.add(b)
    }
}

/// Numeric `min` monoid — identity `+∞`/`MAX`, annihilator `−∞`/`MIN`.
#[derive(Copy, Clone, Debug, Default)]
pub struct MinMonoid;
impl<T: SemiringNum> Monoid<T> for MinMonoid {
    #[inline]
    fn identity(&self) -> T {
        T::MAX_VALUE
    }
    #[inline]
    fn op(&self, a: T, b: T) -> T {
        a.min_of(b)
    }
    #[inline]
    fn annihilator(&self) -> Option<T> {
        Some(T::MIN_VALUE)
    }
}

/// Numeric `max` monoid — identity `−∞`/`MIN`, annihilator `+∞`/`MAX`.
#[derive(Copy, Clone, Debug, Default)]
pub struct MaxMonoid;
impl<T: SemiringNum> Monoid<T> for MaxMonoid {
    #[inline]
    fn identity(&self) -> T {
        T::MIN_VALUE
    }
    #[inline]
    fn op(&self, a: T, b: T) -> T {
        a.max_of(b)
    }
    #[inline]
    fn annihilator(&self) -> Option<T> {
        Some(T::MAX_VALUE)
    }
}

// ---------------------------------------------------------------------------
// Semirings
// ---------------------------------------------------------------------------

/// The BFS semiring `({0,1}, AND, OR, 0)` from Algorithm 1.
///
/// `MULT_IGNORES_A` is *false* here: ⊗ = AND reads the matrix value. Use
/// [`BoolStructure`] for the structure-only variant that treats matrix
/// entry *existence* as `true` (§5.5) — for 0/1 adjacency matrices the two
/// produce identical results, which `graphblas_algo` relies on.
#[derive(Copy, Clone, Debug, Default)]
pub struct BoolOrAnd;
impl Semiring<bool, bool, bool> for BoolOrAnd {
    type Add = OrMonoid;
    #[inline]
    fn add_monoid(&self) -> OrMonoid {
        OrMonoid
    }
    #[inline]
    fn mult(&self, a: bool, x: bool) -> bool {
        a && x
    }
}

/// Structure-only Boolean semiring: ⊗ ignores the matrix value entirely,
/// treating stored-entry existence as Boolean 1 (§5.5).
#[derive(Copy, Clone, Debug, Default)]
pub struct BoolStructure;
impl<A: Scalar> Semiring<A, bool, bool> for BoolStructure {
    type Add = OrMonoid;
    #[inline]
    fn add_monoid(&self) -> OrMonoid {
        OrMonoid
    }
    #[inline]
    fn mult(&self, _a: A, x: bool) -> bool {
        x
    }
    const MULT_IGNORES_A: bool = true;
    #[inline]
    fn product_hint(&self) -> Option<bool> {
        // Explicit frontier entries are `true`, so every product is `true`.
        Some(true)
    }
}

/// Min-plus (tropical) semiring for SSSP: `(T, +, min, ∞)`.
#[derive(Copy, Clone, Debug, Default)]
pub struct MinPlus;
impl<T: SemiringNum> Semiring<T, T, T> for MinPlus {
    type Add = MinMonoid;
    #[inline]
    fn add_monoid(&self) -> MinMonoid {
        MinMonoid
    }
    #[inline]
    fn mult(&self, a: T, x: T) -> T {
        a.add(x)
    }
}

/// Conventional arithmetic semiring for PageRank: `(T, ×, +, 0)`.
#[derive(Copy, Clone, Debug, Default)]
pub struct PlusTimes;
impl<T: SemiringNum> Semiring<T, T, T> for PlusTimes {
    type Add = PlusMonoid;
    #[inline]
    fn add_monoid(&self) -> PlusMonoid {
        PlusMonoid
    }
    #[inline]
    fn mult(&self, a: T, x: T) -> T {
        a.mul(x)
    }
}

/// Plus-second semiring: ⊗ returns the vector operand, ignoring the matrix
/// value — PageRank over an unweighted (pattern) adjacency matrix.
#[derive(Copy, Clone, Debug, Default)]
pub struct PlusSecond;
impl<A: Scalar, T: SemiringNum> Semiring<A, T, T> for PlusSecond {
    type Add = PlusMonoid;
    #[inline]
    fn add_monoid(&self) -> PlusMonoid {
        PlusMonoid
    }
    #[inline]
    fn mult(&self, _a: A, x: T) -> T {
        x
    }
    const MULT_IGNORES_A: bool = true;
}

/// Min-second semiring: connected-components style label propagation over a
/// pattern matrix (take the neighbor's label, reduce with min).
#[derive(Copy, Clone, Debug, Default)]
pub struct MinSecond;
impl<A: Scalar, T: SemiringNum> Semiring<A, T, T> for MinSecond {
    type Add = MinMonoid;
    #[inline]
    fn add_monoid(&self) -> MinMonoid {
        MinMonoid
    }
    #[inline]
    fn mult(&self, _a: A, x: T) -> T {
        x
    }
    const MULT_IGNORES_A: bool = true;
}

/// Max-second semiring: label propagation taking the maximum label.
#[derive(Copy, Clone, Debug, Default)]
pub struct MaxSecond;
impl<A: Scalar, T: SemiringNum> Semiring<A, T, T> for MaxSecond {
    type Add = MaxMonoid;
    #[inline]
    fn add_monoid(&self) -> MaxMonoid {
        MaxMonoid
    }
    #[inline]
    fn mult(&self, _a: A, x: T) -> T {
        x
    }
    const MULT_IGNORES_A: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_monoid_laws() {
        let m = OrMonoid;
        for a in [false, true] {
            assert_eq!(m.op(a, m.identity()), a, "identity law");
            assert!(m.op(m.annihilator().unwrap(), a), "annihilator law");
            for b in [false, true] {
                assert_eq!(m.op(a, b), m.op(b, a), "commutativity");
            }
        }
    }

    #[test]
    fn and_monoid_laws() {
        let m = AndMonoid;
        for a in [false, true] {
            assert_eq!(m.op(a, m.identity()), a);
            assert!(!m.op(m.annihilator().unwrap(), a));
        }
    }

    #[test]
    fn plus_monoid_over_ints_and_floats() {
        let m = PlusMonoid;
        assert_eq!(Monoid::<i64>::identity(&m), 0);
        assert_eq!(m.op(2i64, 3i64), 5);
        assert_eq!(m.op(2.5f64, 0.5f64), 3.0);
        assert_eq!(Monoid::<i64>::annihilator(&m), None);
    }

    #[test]
    fn min_monoid_identity_is_infinity() {
        let m = MinMonoid;
        assert_eq!(Monoid::<f64>::identity(&m), f64::INFINITY);
        assert_eq!(m.op(3.0f64, f64::INFINITY), 3.0);
        assert_eq!(m.op(3.0f64, 1.0), 1.0);
        assert_eq!(Monoid::<u32>::identity(&m), u32::MAX);
    }

    #[test]
    fn max_monoid() {
        let m = MaxMonoid;
        assert_eq!(Monoid::<i32>::identity(&m), i32::MIN);
        assert_eq!(m.op(3i32, 7), 7);
        assert_eq!(Monoid::<i32>::annihilator(&m), Some(i32::MAX));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the const contract
    fn bool_semiring_matches_algorithm1() {
        let s = BoolOrAnd;
        assert!(s.mult(true, true));
        assert!(!s.mult(true, false));
        assert!(!s.mult(false, true));
        let add = s.add_monoid();
        assert!(!add.identity());
        assert_eq!(add.annihilator(), Some(true), "enables early-exit");
        assert!(!<BoolOrAnd as Semiring<bool, bool, bool>>::MULT_IGNORES_A);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the const contract
    fn structure_only_semiring_ignores_matrix_value() {
        let s = BoolStructure;
        // Matrix value type can be anything; it is never read.
        assert!(Semiring::<f64, bool, bool>::mult(&s, 123.0, true));
        assert!(!Semiring::<f64, bool, bool>::mult(&s, 123.0, false));
        assert!(<BoolStructure as Semiring<f64, bool, bool>>::MULT_IGNORES_A);
    }

    #[test]
    fn min_plus_relaxation() {
        let s = MinPlus;
        // Edge weight 2.0 from a vertex at distance 3.0 offers 5.0.
        assert_eq!(Semiring::<f64, f64, f64>::mult(&s, 2.0, 3.0), 5.0);
        let add = Semiring::<f64, f64, f64>::add_monoid(&s);
        assert_eq!(add.op(5.0, 4.0), 4.0);
        assert_eq!(Monoid::<f64>::identity(&add), f64::INFINITY);
    }

    #[test]
    fn plus_times_dot_product() {
        let s = PlusTimes;
        let add = Semiring::<f64, f64, f64>::add_monoid(&s);
        let mut acc = Monoid::<f64>::identity(&add);
        for (a, x) in [(1.0, 2.0), (3.0, 4.0)] {
            acc = add.op(acc, Semiring::<f64, f64, f64>::mult(&s, a, x));
        }
        assert_eq!(acc, 14.0);
    }

    #[test]
    fn second_semirings_for_label_propagation() {
        let min_s = MinSecond;
        assert_eq!(Semiring::<bool, u32, u32>::mult(&min_s, true, 42), 42);
        let max_s = MaxSecond;
        assert_eq!(Semiring::<bool, u32, u32>::mult(&max_s, false, 42), 42);
        let plus_s = PlusSecond;
        assert_eq!(Semiring::<bool, f32, f32>::mult(&plus_s, true, 0.25), 0.25);
    }

    #[test]
    fn saturating_integer_arithmetic() {
        assert_eq!(
            u32::MAX.add(1),
            u32::MAX,
            "min-plus over ints must not wrap"
        );
        assert_eq!(i32::MAX.mul(2), i32::MAX);
    }
}
