//! Portable fixed-width vectors — the fourth vector type of the
//! inter-task sweep.
//!
//! The paper's "intrinsic" kernels are written with AVX (16 × i16) and
//! MIC (32 × i16) intrinsics. Stable Rust has no `std::simd`, so this
//! module provides [`I16s`] and [`I8s`], const-generic vectors whose
//! operations are plain element loops that LLVM autovectorizes for the
//! build's target. They carry the same method names as the SSE2/AVX2
//! newtypes in `crate::arch`, so the one sweep body there instantiates
//! over them unchanged: that instantiation is [`crate::KernelIsa::Portable`]
//! — what runs on non-x86 targets, at lane widths no x86 register matches
//! (4, 32 × i16), and when a run forces it. How fast the element loops
//! end up is measured, not assumed: see the `portable` rows of
//! `results/isa.csv`.
//!
//! All arithmetic is **saturating**: the inter-task kernels rely on scores
//! clamping at the element maximum so overflow can be detected afterwards
//! (see [`crate::overflow`]) instead of wrapping silently.

/// Defines a vector of `L` lanes of `$elem` with the operations the
/// inter-task sweep needs.
macro_rules! lane_vector {
    ($(#[$doc:meta])* $name:ident, $elem:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name<const L: usize>(pub [$elem; L]);

        impl<const L: usize> $name<L> {
            /// All lanes zero.
            #[inline(always)]
            pub fn zero() -> Self {
                Self([0; L])
            }

            /// All lanes set to `v`.
            #[inline(always)]
            pub fn splat(v: $elem) -> Self {
                Self([v; L])
            }

            /// Load `L` lanes from a slice (the contiguous SP profile load).
            ///
            /// # Panics
            /// Panics if `s` holds fewer than `L` elements.
            #[inline(always)]
            pub fn load(s: &[$elem]) -> Self {
                let mut out = [0; L];
                out.copy_from_slice(&s[..L]);
                Self(out)
            }

            /// Gather `L` lanes from `table` at `indices` (the QP profile
            /// access — one `vgather` on MIC, an unavoidable shuffle
            /// sequence on AVX; the perf model charges the corresponding
            /// penalty).
            ///
            /// # Panics
            /// Panics if `indices` holds fewer than `L` elements — a short
            /// index slice would otherwise leave trailing lanes scoring
            /// `table[0]`.
            #[inline(always)]
            pub fn gather(table: &[$elem], indices: &[u8]) -> Self {
                let mut out = [0; L];
                for (o, &ix) in out.iter_mut().zip(&indices[..L]) {
                    *o = table[ix as usize];
                }
                Self(out)
            }

            /// Lane-wise saturating add.
            #[inline(always)]
            pub fn sat_add(self, rhs: Self) -> Self {
                let mut out = [0; L];
                for ((o, a), b) in out.iter_mut().zip(self.0).zip(rhs.0) {
                    *o = a.saturating_add(b);
                }
                Self(out)
            }

            /// Lane-wise saturating subtract.
            #[inline(always)]
            pub fn sat_sub(self, rhs: Self) -> Self {
                let mut out = [0; L];
                for ((o, a), b) in out.iter_mut().zip(self.0).zip(rhs.0) {
                    *o = a.saturating_sub(b);
                }
                Self(out)
            }

            /// Lane-wise maximum.
            #[inline(always)]
            pub fn max(self, rhs: Self) -> Self {
                let mut out = [0; L];
                for ((o, a), b) in out.iter_mut().zip(self.0).zip(rhs.0) {
                    *o = a.max(b);
                }
                Self(out)
            }

            /// Lane-wise minimum (the sweep's lane reset).
            #[inline(always)]
            pub fn min(self, rhs: Self) -> Self {
                let mut out = [0; L];
                for ((o, a), b) in out.iter_mut().zip(self.0).zip(rhs.0) {
                    *o = a.min(b);
                }
                Self(out)
            }

            #[inline(always)]
            pub(crate) fn to_array(self) -> [$elem; L] {
                self.0
            }

            #[inline(always)]
            pub(crate) fn from_array(a: [$elem; L]) -> Self {
                Self(a)
            }
        }
    };
}

lane_vector! {
    /// A vector of `L` lanes of `i16`.
    I16s, i16
}

lane_vector! {
    /// A vector of `L` lanes of `i8` — the narrow tier of the SWIPE-style
    /// dual-precision cascade (see `crate::overflow`). On real hardware an
    /// i8 kernel processes twice the lanes of the i16 one; here the width
    /// is whatever the batch was packed for, and the perf model accounts
    /// the doubling separately.
    I8s, i8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_zero() {
        let v = I16s::<8>::splat(3);
        assert_eq!(v.0, [3; 8]);
        assert_eq!(I16s::<8>::zero().0, [0; 8]);
    }

    #[test]
    fn load_and_array_roundtrip() {
        let data: Vec<i16> = (0..16).collect();
        let v = I16s::<16>::load(&data);
        assert_eq!(&v.to_array()[..], &data[..]);
        assert_eq!(I16s::from_array(v.to_array()), v);
    }

    #[test]
    fn gather_indexes_table() {
        let table: Vec<i16> = (0..10).map(|x| x * 10).collect();
        let idx = [3u8, 0, 9, 1];
        let v = I16s::<4>::gather(&table, &idx);
        assert_eq!(v.0, [30, 0, 90, 10]);
    }

    #[test]
    #[should_panic]
    fn gather_panics_on_short_indices() {
        // A short index slice used to silently leave trailing lanes at
        // table[0]; it must fail loudly like `load` does.
        let table: Vec<i16> = (0..10).collect();
        let _ = I16s::<4>::gather(&table, &[1u8, 2]);
    }

    #[test]
    #[should_panic]
    fn i8_gather_panics_on_short_indices() {
        let table: Vec<i8> = (0..10).collect();
        let _ = I8s::<4>::gather(&table, &[1u8, 2]);
    }

    #[test]
    fn saturating_add_clamps() {
        let a = I16s::<4>::splat(i16::MAX - 1);
        let b = I16s::<4>::splat(10);
        assert_eq!(a.sat_add(b).0, [i16::MAX; 4]);
        let c = I16s::<4>::splat(i16::MIN + 1);
        assert_eq!(c.sat_sub(I16s::splat(10)).0, [i16::MIN; 4]);
    }

    #[test]
    fn max_is_lanewise() {
        let a = I16s::<4>([1, -5, 3, 0]);
        let b = I16s::<4>([0, 2, -7, 0]);
        assert_eq!(a.max(b).0, [1, 2, 3, 0]);
        assert_eq!(a.min(b).0, [0, -5, -7, 0]);
    }

    #[test]
    fn i8_lane_ops() {
        let a = I8s::<4>([1, -5, 120, 0]);
        let b = I8s::<4>([0, 2, 20, 0]);
        assert_eq!(a.max(b).0, [1, 2, 120, 0]);
        assert_eq!(a.min(b).0, [0, -5, 20, 0]);
        assert_eq!(a.sat_add(b).0, [1, -3, i8::MAX, 0]);
        assert_eq!(
            I8s::<4>::splat(i8::MIN).sat_sub(I8s::splat(10)).0,
            [i8::MIN; 4]
        );
        let table: Vec<i8> = (0..10).map(|x| x as i8 * 3).collect();
        assert_eq!(I8s::<3>::gather(&table, &[2, 0, 9]).0, [6, 0, 27]);
        let data = [5i8, 6, 7, 8];
        assert_eq!(I8s::<4>::load(&data).0, data);
        assert_eq!(I8s::<2>::zero().0, [0, 0]);
    }
}
