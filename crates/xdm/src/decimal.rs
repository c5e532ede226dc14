//! A fixed-point `xs:decimal` implementation: an `i128` mantissa with a
//! decimal scale (number of fractional digits), enough precision for the
//! XDM's minimum conformance requirements (18 digits).

use crate::error::{XdmError, XdmResult};
use std::cmp::Ordering;
use std::fmt;

/// Maximum fractional digits we keep after division.
const MAX_SCALE: u32 = 18;

/// Arbitrary-enough precision decimal: `mantissa * 10^-scale`.
///
/// The `i128` mantissa is stored as its two 64-bit halves: an `i128` field
/// would make this type, and every `AtomicValue` and `Item` around it,
/// 16-byte aligned and a third larger.
#[derive(Clone, Copy)]
pub struct Decimal {
    /// Low and high half of the mantissa.
    halves: [u64; 2],
    scale: u32,
}

// arithmetic is deliberately by-name (`a.add(b)`), not via std::ops: `div`
// and `rem` are fallible (XPTY div-by-zero), so operator overloads would
// split the API in two
#[allow(clippy::should_implement_trait)]
impl Decimal {
    pub fn new(mantissa: i128, scale: u32) -> Self {
        Decimal::raw(mantissa, scale).normalized()
    }

    /// `mantissa * 10^-scale` as given, not normalized.
    fn raw(mantissa: i128, scale: u32) -> Self {
        Decimal {
            halves: [mantissa as u64, (mantissa >> 64) as u64],
            scale,
        }
    }

    fn mantissa(&self) -> i128 {
        ((self.halves[1] as i128) << 64) | self.halves[0] as i128
    }

    pub fn from_i64(v: i64) -> Self {
        Decimal::raw(v as i128, 0)
    }

    pub fn zero() -> Self {
        Decimal::raw(0, 0)
    }

    pub fn is_zero(&self) -> bool {
        self.halves == [0, 0]
    }

    pub fn is_negative(&self) -> bool {
        self.mantissa() < 0
    }

    /// Parse an `xs:decimal` lexical form: optional sign, digits, optional
    /// fraction. Exponents are *not* allowed (that is xs:double).
    pub fn parse(s: &str) -> XdmResult<Self> {
        let s = s.trim();
        if s.is_empty() {
            return Err(XdmError::invalid_cast("empty decimal"));
        }
        let (neg, rest) = match s.as_bytes()[0] {
            b'-' => (true, &s[1..]),
            b'+' => (false, &s[1..]),
            _ => (false, s),
        };
        let (int_part, frac_part) = match rest.split_once('.') {
            Some((i, f)) => (i, f),
            None => (rest, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(XdmError::invalid_cast(format!("invalid decimal `{s}`")));
        }
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(XdmError::invalid_cast(format!("invalid decimal `{s}`")));
        }
        let frac = if frac_part.len() as u32 > MAX_SCALE {
            &frac_part[..MAX_SCALE as usize]
        } else {
            frac_part
        };
        let digits = format!("{int_part}{frac}");
        let mantissa: i128 = if digits.is_empty() {
            0
        } else {
            digits
                .parse()
                .map_err(|_| XdmError::invalid_cast(format!("decimal overflow `{s}`")))?
        };
        let mantissa = if neg { -mantissa } else { mantissa };
        Ok(Decimal::new(mantissa, frac.len() as u32))
    }

    fn normalized(self) -> Self {
        let (mut m, mut scale) = (self.mantissa(), self.scale);
        while scale > 0 && m % 10 == 0 {
            m /= 10;
            scale -= 1;
        }
        Decimal::raw(m, scale)
    }

    fn rescaled_pair(a: Decimal, b: Decimal) -> (i128, i128, u32) {
        let scale = a.scale.max(b.scale);
        let am = a.mantissa() * 10i128.pow(scale - a.scale);
        let bm = b.mantissa() * 10i128.pow(scale - b.scale);
        (am, bm, scale)
    }

    pub fn add(self, other: Decimal) -> Decimal {
        let (a, b, s) = Self::rescaled_pair(self, other);
        Decimal::new(a + b, s)
    }

    pub fn sub(self, other: Decimal) -> Decimal {
        let (a, b, s) = Self::rescaled_pair(self, other);
        Decimal::new(a - b, s)
    }

    pub fn mul(self, other: Decimal) -> Decimal {
        let mut m = self.mantissa() * other.mantissa();
        let mut s = self.scale + other.scale;
        while s > MAX_SCALE {
            m /= 10;
            s -= 1;
        }
        Decimal::new(m, s)
    }

    pub fn div(self, other: Decimal) -> XdmResult<Decimal> {
        if other.is_zero() {
            return Err(XdmError::div_by_zero());
        }
        // Compute with MAX_SCALE fractional digits of precision.
        let (a, b, _) = Self::rescaled_pair(self, other);
        let scaled = a
            .checked_mul(10i128.pow(MAX_SCALE))
            .ok_or_else(|| XdmError::invalid_cast("decimal division overflow"))?;
        Ok(Decimal::new(scaled / b, MAX_SCALE))
    }

    /// Integer division (`idiv`), truncating toward zero.
    pub fn idiv(self, other: Decimal) -> XdmResult<i64> {
        if other.is_zero() {
            return Err(XdmError::div_by_zero());
        }
        let (a, b, _) = Self::rescaled_pair(self, other);
        Ok((a / b) as i64)
    }

    /// Remainder (`mod`), sign follows the dividend.
    pub fn rem(self, other: Decimal) -> XdmResult<Decimal> {
        if other.is_zero() {
            return Err(XdmError::div_by_zero());
        }
        let (a, b, s) = Self::rescaled_pair(self, other);
        Ok(Decimal::new(a % b, s))
    }

    pub fn neg(self) -> Decimal {
        Decimal::raw(-self.mantissa(), self.scale)
    }

    pub fn abs(self) -> Decimal {
        Decimal::raw(self.mantissa().abs(), self.scale)
    }

    pub fn floor(self) -> i64 {
        let d = 10i128.pow(self.scale);
        let q = self.mantissa().div_euclid(d);
        q as i64
    }

    pub fn ceiling(self) -> i64 {
        -((-self).floor())
    }

    /// Round half away from zero (fn:round semantics for positive halves).
    pub fn round(self) -> i64 {
        let d = 10i128.pow(self.scale);
        let half = d / 2;
        // fn:round rounds .5 toward positive infinity.
        ((self.mantissa() + half).div_euclid(d)) as i64
    }

    pub fn to_f64(self) -> f64 {
        self.mantissa() as f64 / 10f64.powi(self.scale as i32)
    }
}

impl std::ops::Neg for Decimal {
    type Output = Decimal;
    fn neg(self) -> Decimal {
        Decimal::neg(self)
    }
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Decimal {}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b, _) = Self::rescaled_pair(*self, *other);
        a.cmp(&b)
    }
}

impl fmt::Debug for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Decimal({self})")
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.normalized();
        if n.scale == 0 {
            return write!(f, "{}", n.mantissa());
        }
        let sign = if n.mantissa() < 0 { "-" } else { "" };
        let abs = n.mantissa().unsigned_abs();
        let d = 10u128.pow(n.scale);
        let int = abs / d;
        let frac = abs % d;
        let frac_str = format!("{:0width$}", frac, width = n.scale as usize);
        let frac_str = frac_str.trim_end_matches('0');
        if frac_str.is_empty() {
            write!(f, "{sign}{int}")
        } else {
            write!(f, "{sign}{int}.{frac_str}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        Decimal::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(d("3.14").to_string(), "3.14");
        assert_eq!(d("-0.50").to_string(), "-0.5");
        assert_eq!(d("42").to_string(), "42");
        assert_eq!(d("+1.0").to_string(), "1");
        assert_eq!(d(".5").to_string(), "0.5");
        assert_eq!(d("5.").to_string(), "5");
    }

    #[test]
    fn invalid_forms_rejected() {
        assert!(Decimal::parse("").is_err());
        assert!(Decimal::parse("1e3").is_err());
        assert!(Decimal::parse("abc").is_err());
        assert!(Decimal::parse(".").is_err());
        assert!(Decimal::parse("1.2.3").is_err());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(d("1.5").add(d("2.25")), d("3.75"));
        assert_eq!(d("1").sub(d("0.001")), d("0.999"));
        assert_eq!(d("1.5").mul(d("2")), d("3"));
        assert_eq!(d("1").div(d("8")).unwrap(), d("0.125"));
        assert_eq!(d("7").idiv(d("2")).unwrap(), 3);
        assert_eq!(d("-7").idiv(d("2")).unwrap(), -3);
        assert_eq!(d("7.5").rem(d("2")).unwrap(), d("1.5"));
    }

    #[test]
    fn div_by_zero_errors() {
        assert_eq!(d("1").div(d("0")).unwrap_err().code, "FOAR0001");
        assert_eq!(d("1").idiv(d("0")).unwrap_err().code, "FOAR0001");
        assert_eq!(d("1").rem(d("0")).unwrap_err().code, "FOAR0001");
    }

    #[test]
    fn comparisons_rescale() {
        assert_eq!(d("1.50"), d("1.5"));
        assert!(d("1.5") < d("1.51"));
        assert!(d("-2") < d("1"));
    }

    #[test]
    fn rounding_family() {
        assert_eq!(d("2.5").round(), 3);
        assert_eq!(d("-2.5").round(), -2); // fn:round: toward +inf
        assert_eq!(d("2.4").floor(), 2);
        assert_eq!(d("-2.4").floor(), -3);
        assert_eq!(d("2.4").ceiling(), 3);
        assert_eq!(d("-2.4").ceiling(), -2);
    }
}
