//! Scores as the pages print them, without `core::fmt` on the way.

use std::fmt::Write as _;

use nagano_db::schema::push_decimal;

/// Append `x` with two decimals: byte for byte what `{x:.2}` appends, for
/// every `f64`. A score is printed once per row of every result table
/// and athlete page regenerated, and digits cost a fifth of `fmt`.
///
/// A double in [2⁻¹⁰, 2⁵³) is `m · 2⁻ˢ` with `m < 2⁵³` and `s ≤ 62`, so
/// its hundredths are the integer `m · 100 >> s` (under 2⁶⁰) and what
/// the shift drops decides the rounding exactly — to nearest, a tie to
/// even, on the binary value, as `fmt` rounds. Anything else — negative,
/// smaller, larger, not finite — is `fmt`'s.
pub(crate) fn push_fixed2(out: &mut String, x: f64) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: u64 = 1075; // exponent of the mantissa's last bit
    let bits = x.to_bits();
    let exponent = bits >> MANTISSA_BITS; // sign included: set means negative
    if !(BIAS - 62..=BIAS).contains(&exponent) {
        let _ = write!(out, "{x:.2}");
        return;
    }
    let mantissa = (bits & ((1 << MANTISSA_BITS) - 1)) | (1 << MANTISSA_BITS);
    let shift = BIAS - exponent;
    let scaled = mantissa * 100;
    let mut hundredths = scaled >> shift;
    if shift > 0 {
        let dropped = scaled & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        if dropped > half || (dropped == half && hundredths & 1 == 1) {
            hundredths += 1;
        }
    }
    push_decimal(out, hundredths / 100);
    let cents = (hundredths % 100) as u8;
    out.push('.');
    out.push(char::from(b'0' + cents / 10));
    out.push(char::from(b'0' + cents % 10));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed2(x: f64) -> String {
        let mut out = String::from("|");
        push_fixed2(&mut out, x);
        out
    }

    fn assert_matches_fmt(x: f64) {
        assert_eq!(
            fixed2(x),
            format!("|{x:.2}"),
            "{x:e} = {:#018x}",
            x.to_bits()
        );
    }

    #[test]
    fn ties_edges_and_what_is_left_to_fmt() {
        // Exact ties (dyadic), near-ties that are not, carries into the
        // integer part, and both ends of the range handled in digits.
        for x in [
            0.125,
            0.375,
            0.625,
            0.875,
            2.5,
            0.005,
            0.015,
            1.005,
            1.015,
            2.675,
            99.995,
            99.994_999,
            0.994_999,
            0.995,
            0.999,
            9.999,
            100.0,
            1.0,
            4_294_967_295.995,
            4_294_967_296.0,
            2f64.powi(52),
            2f64.powi(52) + 1.0,
            2f64.powi(53) - 1.0,
            2f64.powi(53),
            2f64.powi(60),
            2f64.powi(-10),
            2f64.powi(-10) - f64::EPSILON / 4096.0,
            2f64.powi(-9) * 1.25,
            0.004_882_812_5,
            1e-9,
            1e300,
            f64::MIN_POSITIVE,
            5e-324,
            0.0,
            -0.0,
            -1.005,
            -99.995,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ] {
            assert_matches_fmt(x);
        }
        assert_eq!(
            fixed2(99.995),
            "|100.00",
            "99.995 is just under, but rounds up"
        );
        assert_eq!(fixed2(0.125), "|0.12", "a tie goes to even");
        assert_eq!(fixed2(0.375), "|0.38");
    }

    #[test]
    fn every_tie_of_a_byte_goes_to_even() {
        // k/8 for odd k is exactly representable and exactly on a tie.
        for k in (1..4096u32).step_by(2) {
            assert_matches_fmt(f64::from(k) / 8.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// What `UpdateSchedule::apply` draws: `100 - rank - u`.
        #[test]
        fn scores_print_as_fmt_prints_them(rank in 0..30u32, u in 0.0..1.0f64) {
            assert_matches_fmt(100.0 - f64::from(rank) - u);
        }

        /// Any double at all, by its bits.
        #[test]
        fn any_bits_print_as_fmt_prints_them(bits in any::<u64>()) {
            assert_matches_fmt(f64::from_bits(bits));
        }

        /// The digit range, densely: every exponent it covers, and the
        /// first exponents outside it.
        #[test]
        fn every_handled_exponent_prints_as_fmt_prints_it(
            exponent in 1010..=1077u64,
            mantissa in any::<u64>(),
        ) {
            let bits = (exponent << 52) | (mantissa & ((1 << 52) - 1));
            assert_matches_fmt(f64::from_bits(bits));
        }

        /// Hundredths and thousandths: the decimal near-ties.
        #[test]
        fn decimal_near_ties_print_as_fmt_prints_them(thousandths in 0..200_000u32) {
            assert_matches_fmt(f64::from(thousandths) / 1000.0);
            assert_matches_fmt(f64::from(thousandths) * 0.001);
        }
    }
}
