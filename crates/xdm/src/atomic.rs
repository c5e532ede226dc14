//! Typed atomic values with lexical parsing/formatting, casting and
//! the value-comparison semantics XQuery defines.

use crate::decimal::Decimal;
use crate::error::{XdmError, XdmResult};
use crate::types::AtomicType;
use std::cmp::Ordering;

use xmldom::QName;

/// An `xs:dateTime` / `xs:date` / `xs:time` value. Unused components are
/// zero. Timezone is minutes east of UTC (`None` = no timezone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DateTimeValue {
    pub year: i32,
    pub month: u8,
    pub day: u8,
    pub hour: u8,
    pub minute: u8,
    pub second: u8,
    pub nanos: u32,
    pub tz_minutes: Option<i16>,
}

impl DateTimeValue {
    /// Total ordering key: convert to an approximate UTC timeline value.
    /// Days-from-civil algorithm (Howard Hinnant), good for all years.
    fn timeline(&self) -> i128 {
        let y = self.year as i64 - if self.month <= 2 { 1 } else { 0 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = self.month as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + self.day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        let days = era * 146097 + doe - 719468;
        let mut secs = days as i128 * 86400
            + self.hour as i128 * 3600
            + self.minute as i128 * 60
            + self.second as i128;
        if let Some(tz) = self.tz_minutes {
            secs -= tz as i128 * 60;
        }
        secs * 1_000_000_000 + self.nanos as i128
    }

    pub fn cmp_value(&self, other: &DateTimeValue) -> Ordering {
        self.timeline().cmp(&other.timeline())
    }
}

/// An `xs:duration`: months plus (possibly fractional) seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DurationValue {
    pub months: i64,
    pub seconds: f64,
}

/// A typed atomic value of the XDM.
#[derive(Clone, Debug, PartialEq)]
pub enum AtomicValue {
    String(String),
    UntypedAtomic(String),
    AnyUri(String),
    Boolean(bool),
    Integer(i64),
    Decimal(Decimal),
    Double(f64),
    Float(f32),
    /// Boxed: a `QName` is three strings, the only member wider than a
    /// `String`, and the rarest.
    QNameV(Box<QName>),
    Date(DateTimeValue),
    Time(DateTimeValue),
    DateTime(DateTimeValue),
    Duration(DurationValue),
}

impl AtomicValue {
    pub fn atomic_type(&self) -> AtomicType {
        match self {
            AtomicValue::String(_) => AtomicType::String,
            AtomicValue::UntypedAtomic(_) => AtomicType::UntypedAtomic,
            AtomicValue::AnyUri(_) => AtomicType::AnyUri,
            AtomicValue::Boolean(_) => AtomicType::Boolean,
            AtomicValue::Integer(_) => AtomicType::Integer,
            AtomicValue::Decimal(_) => AtomicType::Decimal,
            AtomicValue::Double(_) => AtomicType::Double,
            AtomicValue::Float(_) => AtomicType::Float,
            AtomicValue::QNameV(_) => AtomicType::QNameT,
            AtomicValue::Date(_) => AtomicType::Date,
            AtomicValue::Time(_) => AtomicType::Time,
            AtomicValue::DateTime(_) => AtomicType::DateTime,
            AtomicValue::Duration(_) => AtomicType::Duration,
        }
    }

    /// The canonical lexical form (what `fn:string` and the wire format use).
    pub fn lexical(&self) -> String {
        match self {
            AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) | AtomicValue::AnyUri(s) => {
                s.clone()
            }
            AtomicValue::Boolean(b) => b.to_string(),
            AtomicValue::Integer(i) => i.to_string(),
            AtomicValue::Decimal(d) => d.to_string(),
            AtomicValue::Double(d) => fmt_double(*d),
            AtomicValue::Float(f) => fmt_double(*f as f64),
            AtomicValue::QNameV(q) => q.lexical(),
            AtomicValue::Date(d) => format!(
                "{:04}-{:02}-{:02}{}",
                d.year,
                d.month,
                d.day,
                fmt_tz(d.tz_minutes)
            ),
            AtomicValue::Time(t) => format!(
                "{:02}:{:02}:{:02}{}",
                t.hour,
                t.minute,
                t.second,
                fmt_tz(t.tz_minutes)
            ),
            AtomicValue::DateTime(d) => format!(
                "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}{}",
                d.year,
                d.month,
                d.day,
                d.hour,
                d.minute,
                d.second,
                fmt_tz(d.tz_minutes)
            ),
            AtomicValue::Duration(du) => fmt_duration(du),
        }
    }

    /// Parse a lexical form as a value of `ty` (the wire unmarshal path and
    /// the `cast as` path share this).
    pub fn parse_as(lexical: &str, ty: AtomicType) -> XdmResult<AtomicValue> {
        let s = lexical.trim();
        Ok(match ty {
            AtomicType::String => AtomicValue::String(lexical.to_string()),
            AtomicType::UntypedAtomic => AtomicValue::UntypedAtomic(lexical.to_string()),
            AtomicType::AnyUri => AtomicValue::AnyUri(s.to_string()),
            AtomicType::Boolean => match s {
                "true" | "1" => AtomicValue::Boolean(true),
                "false" | "0" => AtomicValue::Boolean(false),
                _ => {
                    return Err(XdmError::invalid_cast(format!("invalid boolean `{s}`")));
                }
            },
            AtomicType::Integer => AtomicValue::Integer(
                s.parse::<i64>()
                    .map_err(|_| XdmError::invalid_cast(format!("invalid integer `{s}`")))?,
            ),
            AtomicType::Decimal => AtomicValue::Decimal(Decimal::parse(s)?),
            AtomicType::Double => AtomicValue::Double(parse_double(s)?),
            AtomicType::Float => AtomicValue::Float(parse_double(s)? as f32),
            AtomicType::QNameT => {
                // Lexical QName without in-scope resolution (prefix kept).
                let (p, l) = match s.split_once(':') {
                    Some((p, l)) => (Some(p.to_string()), l.to_string()),
                    None => (None, s.to_string()),
                };
                AtomicValue::QNameV(Box::new(QName {
                    prefix: p,
                    ns_uri: None,
                    local: l,
                }))
            }
            AtomicType::Date => AtomicValue::Date(parse_date(s)?),
            AtomicType::Time => AtomicValue::Time(parse_time(s)?),
            AtomicType::DateTime => AtomicValue::DateTime(parse_datetime(s)?),
            AtomicType::Duration => AtomicValue::Duration(parse_duration(s)?),
        })
    }

    /// `cast as` between atomic types.
    pub fn cast_to(&self, ty: AtomicType) -> XdmResult<AtomicValue> {
        if self.atomic_type() == ty {
            return Ok(self.clone());
        }
        match (self, ty) {
            // Numeric-to-numeric casts keep values, not lexical forms.
            (AtomicValue::Integer(i), AtomicType::Decimal) => {
                Ok(AtomicValue::Decimal(Decimal::from_i64(*i)))
            }
            (AtomicValue::Integer(i), AtomicType::Double) => Ok(AtomicValue::Double(*i as f64)),
            (AtomicValue::Integer(i), AtomicType::Float) => Ok(AtomicValue::Float(*i as f32)),
            (AtomicValue::Decimal(d), AtomicType::Double) => Ok(AtomicValue::Double(d.to_f64())),
            (AtomicValue::Decimal(d), AtomicType::Float) => {
                Ok(AtomicValue::Float(d.to_f64() as f32))
            }
            (AtomicValue::Decimal(d), AtomicType::Integer) => {
                // truncate toward zero
                let t = if d.is_negative() {
                    d.ceiling()
                } else {
                    d.floor()
                };
                Ok(AtomicValue::Integer(t))
            }
            (AtomicValue::Double(d), AtomicType::Integer) => {
                if d.is_nan() || d.is_infinite() {
                    Err(XdmError::invalid_cast("cannot cast NaN/INF to integer"))
                } else {
                    Ok(AtomicValue::Integer(d.trunc() as i64))
                }
            }
            (AtomicValue::Double(d), AtomicType::Decimal) => {
                if d.is_nan() || d.is_infinite() {
                    Err(XdmError::invalid_cast("cannot cast NaN/INF to decimal"))
                } else {
                    Decimal::parse(&format!("{:.12}", d)).map(AtomicValue::Decimal)
                }
            }
            (AtomicValue::Float(f), t) => AtomicValue::Double(*f as f64).cast_to(t),
            (AtomicValue::Boolean(b), AtomicType::Integer) => {
                Ok(AtomicValue::Integer(if *b { 1 } else { 0 }))
            }
            (AtomicValue::Boolean(b), AtomicType::Double) => {
                Ok(AtomicValue::Double(if *b { 1.0 } else { 0.0 }))
            }
            (AtomicValue::Boolean(b), AtomicType::Decimal) => {
                Ok(AtomicValue::Decimal(Decimal::from_i64(if *b {
                    1
                } else {
                    0
                })))
            }
            (AtomicValue::Integer(i), AtomicType::Boolean) => Ok(AtomicValue::Boolean(*i != 0)),
            (AtomicValue::Decimal(d), AtomicType::Boolean) => {
                Ok(AtomicValue::Boolean(!d.is_zero()))
            }
            (AtomicValue::Double(d), AtomicType::Boolean) => {
                Ok(AtomicValue::Boolean(*d != 0.0 && !d.is_nan()))
            }
            (AtomicValue::DateTime(d), AtomicType::Date) => Ok(AtomicValue::Date(DateTimeValue {
                hour: 0,
                minute: 0,
                second: 0,
                nanos: 0,
                ..*d
            })),
            (AtomicValue::DateTime(d), AtomicType::Time) => Ok(AtomicValue::Time(DateTimeValue {
                year: 0,
                month: 1,
                day: 1,
                ..*d
            })),
            // Everything else goes through the lexical form.
            _ => AtomicValue::parse_as(&self.lexical(), ty),
        }
    }

    /// Numeric type promotion for a pair (integer < decimal < float < double).
    pub fn promote_pair(a: &AtomicValue, b: &AtomicValue) -> XdmResult<(AtomicValue, AtomicValue)> {
        use AtomicType as T;
        let ta = a.atomic_type();
        let tb = b.atomic_type();
        let rank = |t: T| match t {
            T::Integer => Some(0u8),
            T::Decimal => Some(1),
            T::Float => Some(2),
            T::Double => Some(3),
            _ => None,
        };
        let (ra, rb) = match (rank(ta), rank(tb)) {
            (Some(x), Some(y)) => (x, y),
            _ => {
                return Err(XdmError::type_error(format!(
                    "cannot promote {} and {} numerically",
                    ta, tb
                )))
            }
        };
        let target = match ra.max(rb) {
            0 => T::Integer,
            1 => T::Decimal,
            2 => T::Float,
            _ => T::Double,
        };
        Ok((a.cast_to(target)?, b.cast_to(target)?))
    }

    /// XQuery *value comparison* (`eq`, `lt`, ...). UntypedAtomic compares as
    /// string when against strings, else both sides must be comparable.
    pub fn value_cmp(&self, other: &AtomicValue) -> XdmResult<Ordering> {
        use AtomicValue as V;
        match (self, other) {
            (
                V::String(a) | V::UntypedAtomic(a) | V::AnyUri(a),
                V::String(b) | V::UntypedAtomic(b) | V::AnyUri(b),
            ) => Ok(a.cmp(b)),
            (V::Boolean(a), V::Boolean(b)) => Ok(a.cmp(b)),
            (V::QNameV(a), V::QNameV(b)) => {
                if a.matches(b) {
                    Ok(Ordering::Equal)
                } else {
                    Ok(a.lexical().cmp(&b.lexical()))
                }
            }
            (V::Date(a), V::Date(b))
            | (V::Time(a), V::Time(b))
            | (V::DateTime(a), V::DateTime(b)) => Ok(a.cmp_value(b)),
            (V::Duration(a), V::Duration(b)) => {
                let sa = a.months as f64 * 2_629_746.0 + a.seconds;
                let sb = b.months as f64 * 2_629_746.0 + b.seconds;
                sa.partial_cmp(&sb)
                    .ok_or_else(|| XdmError::type_error("duration comparison failed"))
            }
            _ => {
                let (pa, pb) = AtomicValue::promote_pair(self, other)?;
                match (pa, pb) {
                    (V::Integer(a), V::Integer(b)) => Ok(a.cmp(&b)),
                    (V::Decimal(a), V::Decimal(b)) => Ok(a.cmp(&b)),
                    (V::Double(a), V::Double(b)) => a
                        .partial_cmp(&b)
                        .ok_or_else(|| XdmError::type_error("NaN comparison")),
                    (V::Float(a), V::Float(b)) => a
                        .partial_cmp(&b)
                        .ok_or_else(|| XdmError::type_error("NaN comparison")),
                    _ => unreachable!("promotion yields numeric pair"),
                }
            }
        }
    }

    /// Equality for *general comparison* `=`: untyped operands are cast to
    /// the other side's type (or double against numbers).
    pub fn general_eq(&self, other: &AtomicValue) -> XdmResult<bool> {
        let (a, b) = general_coerce(self, other)?;
        Ok(a.value_cmp(&b)? == Ordering::Equal)
    }

    /// Ordering for general comparison `<`, `>`, ...
    pub fn general_cmp(&self, other: &AtomicValue) -> XdmResult<Ordering> {
        let (a, b) = general_coerce(self, other)?;
        a.value_cmp(&b)
    }

    /// Effective boolean value of a single atomic item.
    pub fn ebv(&self) -> XdmResult<bool> {
        Ok(match self {
            AtomicValue::Boolean(b) => *b,
            AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) | AtomicValue::AnyUri(s) => {
                !s.is_empty()
            }
            AtomicValue::Integer(i) => *i != 0,
            AtomicValue::Decimal(d) => !d.is_zero(),
            AtomicValue::Double(d) => *d != 0.0 && !d.is_nan(),
            AtomicValue::Float(f) => *f != 0.0 && !f.is_nan(),
            _ => {
                return Err(XdmError::invalid_arg(format!(
                    "no effective boolean value for {}",
                    self.atomic_type()
                )))
            }
        })
    }
}

/// Coerce operands of a general comparison per XQuery 1.0 §3.5.2.
fn general_coerce(a: &AtomicValue, b: &AtomicValue) -> XdmResult<(AtomicValue, AtomicValue)> {
    use AtomicType as T;
    use AtomicValue as V;
    let ta = a.atomic_type();
    let tb = b.atomic_type();
    match (ta, tb) {
        (T::UntypedAtomic, T::UntypedAtomic) => {
            Ok((V::String(a.lexical()), V::String(b.lexical())))
        }
        (T::UntypedAtomic, t) if t.is_numeric() => Ok((a.cast_to(T::Double)?, b.clone())),
        (t, T::UntypedAtomic) if t.is_numeric() => Ok((a.clone(), b.cast_to(T::Double)?)),
        (T::UntypedAtomic, t) => Ok((a.cast_to(t)?, b.clone())),
        (t, T::UntypedAtomic) => Ok((a.clone(), b.cast_to(t)?)),
        _ => Ok((a.clone(), b.clone())),
    }
}

// ---------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------

/// Format a double per the XPath rules (integral values print without `.0`;
/// special values as `NaN`, `INF`, `-INF`).
pub fn fmt_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_string()
    } else if d.is_infinite() {
        if d > 0.0 {
            "INF".to_string()
        } else {
            "-INF".to_string()
        }
    } else if d == d.trunc() && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        let s = format!("{}", d);
        s
    }
}

fn parse_double(s: &str) -> XdmResult<f64> {
    match s {
        "INF" | "+INF" => Ok(f64::INFINITY),
        "-INF" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s
            .parse::<f64>()
            .map_err(|_| XdmError::invalid_cast(format!("invalid double `{s}`"))),
    }
}

fn fmt_tz(tz: Option<i16>) -> String {
    match tz {
        None => String::new(),
        Some(0) => "Z".to_string(),
        Some(m) => {
            let sign = if m < 0 { '-' } else { '+' };
            let a = m.abs();
            format!("{}{:02}:{:02}", sign, a / 60, a % 60)
        }
    }
}

fn parse_tz(s: &str) -> XdmResult<(Option<i16>, &str)> {
    if let Some(rest) = s.strip_suffix('Z') {
        return Ok((Some(0), rest));
    }
    if s.len() >= 6 {
        let tail = &s[s.len() - 6..];
        let b = tail.as_bytes();
        if (b[0] == b'+' || b[0] == b'-') && b[3] == b':' {
            let h: i16 = tail[1..3]
                .parse()
                .map_err(|_| XdmError::invalid_cast("bad timezone"))?;
            let m: i16 = tail[4..6]
                .parse()
                .map_err(|_| XdmError::invalid_cast("bad timezone"))?;
            let total = h * 60 + m;
            let total = if b[0] == b'-' { -total } else { total };
            return Ok((Some(total), &s[..s.len() - 6]));
        }
    }
    Ok((None, s))
}

fn parse_date(s: &str) -> XdmResult<DateTimeValue> {
    let (tz, core) = parse_tz(s)?;
    let parts: Vec<&str> = core.splitn(3, '-').collect();
    // handle negative years: leading '-' creates an empty first part
    let (year, month, day) = if let Some(rest) = core.strip_prefix('-') {
        let p: Vec<&str> = rest.splitn(3, '-').collect();
        if p.len() != 3 {
            return Err(XdmError::invalid_cast(format!("invalid date `{s}`")));
        }
        (-(parse_num::<i32>(p[0], s)?), p[1], p[2])
    } else {
        if parts.len() != 3 {
            return Err(XdmError::invalid_cast(format!("invalid date `{s}`")));
        }
        (parse_num::<i32>(parts[0], s)?, parts[1], parts[2])
    };
    let month = parse_num::<u8>(month, s)?;
    let day = parse_num::<u8>(day, s)?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(XdmError::invalid_cast(format!("invalid date `{s}`")));
    }
    Ok(DateTimeValue {
        year,
        month,
        day,
        hour: 0,
        minute: 0,
        second: 0,
        nanos: 0,
        tz_minutes: tz,
    })
}

fn parse_time(s: &str) -> XdmResult<DateTimeValue> {
    let (tz, core) = parse_tz(s)?;
    let parts: Vec<&str> = core.splitn(3, ':').collect();
    if parts.len() != 3 {
        return Err(XdmError::invalid_cast(format!("invalid time `{s}`")));
    }
    let hour = parse_num::<u8>(parts[0], s)?;
    let minute = parse_num::<u8>(parts[1], s)?;
    let (sec_str, nanos) = match parts[2].split_once('.') {
        Some((sec, frac)) => {
            let mut f = frac.to_string();
            while f.len() < 9 {
                f.push('0');
            }
            (sec, parse_num::<u32>(&f[..9], s)?)
        }
        None => (parts[2], 0),
    };
    let second = parse_num::<u8>(sec_str, s)?;
    if hour > 24 || minute > 59 || second > 60 {
        return Err(XdmError::invalid_cast(format!("invalid time `{s}`")));
    }
    Ok(DateTimeValue {
        year: 0,
        month: 1,
        day: 1,
        hour,
        minute,
        second,
        nanos,
        tz_minutes: tz,
    })
}

fn parse_datetime(s: &str) -> XdmResult<DateTimeValue> {
    let (date_part, time_part) = s
        .split_once('T')
        .ok_or_else(|| XdmError::invalid_cast(format!("invalid dateTime `{s}`")))?;
    let d = parse_date(date_part)?;
    let t = parse_time(time_part)?;
    Ok(DateTimeValue {
        year: d.year,
        month: d.month,
        day: d.day,
        hour: t.hour,
        minute: t.minute,
        second: t.second,
        nanos: t.nanos,
        tz_minutes: t.tz_minutes.or(d.tz_minutes),
    })
}

fn parse_duration(s: &str) -> XdmResult<DurationValue> {
    // PnYnMnDTnHnMnS with optional leading '-'
    let (neg, rest) = match s.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, s),
    };
    let rest = rest
        .strip_prefix('P')
        .ok_or_else(|| XdmError::invalid_cast(format!("invalid duration `{s}`")))?;
    let (date_str, time_str) = match rest.split_once('T') {
        Some((d, t)) => (d, t),
        None => (rest, ""),
    };
    let mut months = 0i64;
    let mut seconds = 0f64;
    let mut num = String::new();
    for c in date_str.chars() {
        if c.is_ascii_digit() || c == '.' {
            num.push(c);
        } else {
            let v: f64 = num
                .parse()
                .map_err(|_| XdmError::invalid_cast(format!("invalid duration `{s}`")))?;
            num.clear();
            match c {
                'Y' => months += (v as i64) * 12,
                'M' => months += v as i64,
                'D' => seconds += v * 86400.0,
                _ => return Err(XdmError::invalid_cast(format!("invalid duration `{s}`"))),
            }
        }
    }
    for c in time_str.chars() {
        if c.is_ascii_digit() || c == '.' {
            num.push(c);
        } else {
            let v: f64 = num
                .parse()
                .map_err(|_| XdmError::invalid_cast(format!("invalid duration `{s}`")))?;
            num.clear();
            match c {
                'H' => seconds += v * 3600.0,
                'M' => seconds += v * 60.0,
                'S' => seconds += v,
                _ => return Err(XdmError::invalid_cast(format!("invalid duration `{s}`"))),
            }
        }
    }
    if !num.is_empty() {
        return Err(XdmError::invalid_cast(format!("invalid duration `{s}`")));
    }
    Ok(DurationValue {
        months: if neg { -months } else { months },
        seconds: if neg { -seconds } else { seconds },
    })
}

fn fmt_duration(d: &DurationValue) -> String {
    if d.months == 0 && d.seconds == 0.0 {
        return "PT0S".to_string();
    }
    let neg = d.months < 0 || d.seconds < 0.0;
    let months = d.months.unsigned_abs();
    let secs = d.seconds.abs();
    let mut out = String::new();
    if neg {
        out.push('-');
    }
    out.push('P');
    let years = months / 12;
    let rem_months = months % 12;
    if years > 0 {
        out.push_str(&format!("{years}Y"));
    }
    if rem_months > 0 {
        out.push_str(&format!("{rem_months}M"));
    }
    let days = (secs / 86400.0).floor();
    let mut rem = secs - days * 86400.0;
    if days > 0.0 {
        out.push_str(&format!("{}D", days as u64));
    }
    if rem > 0.0 {
        out.push('T');
        let hours = (rem / 3600.0).floor();
        rem -= hours * 3600.0;
        let mins = (rem / 60.0).floor();
        rem -= mins * 60.0;
        if hours > 0.0 {
            out.push_str(&format!("{}H", hours as u64));
        }
        if mins > 0.0 {
            out.push_str(&format!("{}M", mins as u64));
        }
        if rem > 0.0 {
            if rem == rem.trunc() {
                out.push_str(&format!("{}S", rem as u64));
            } else {
                out.push_str(&format!("{rem}S"));
            }
        }
    }
    out
}

fn parse_num<T: std::str::FromStr>(part: &str, whole: &str) -> XdmResult<T> {
    part.parse::<T>()
        .map_err(|_| XdmError::invalid_cast(format!("invalid component in `{whole}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexical_roundtrip_numerics() {
        for (lex, ty) in [
            ("42", AtomicType::Integer),
            ("3.14", AtomicType::Decimal),
            ("true", AtomicType::Boolean),
            ("hello", AtomicType::String),
        ] {
            let v = AtomicValue::parse_as(lex, ty).unwrap();
            assert_eq!(v.lexical(), lex);
            assert_eq!(v.atomic_type(), ty);
        }
    }

    #[test]
    fn double_formatting() {
        assert_eq!(AtomicValue::Double(3.0).lexical(), "3");
        assert_eq!(AtomicValue::Double(3.5).lexical(), "3.5");
        assert_eq!(AtomicValue::Double(f64::NAN).lexical(), "NaN");
        assert_eq!(AtomicValue::Double(f64::INFINITY).lexical(), "INF");
        assert_eq!(AtomicValue::Double(f64::NEG_INFINITY).lexical(), "-INF");
    }

    #[test]
    fn boolean_lexical_space() {
        assert_eq!(
            AtomicValue::parse_as("1", AtomicType::Boolean)
                .unwrap()
                .lexical(),
            "true"
        );
        assert!(AtomicValue::parse_as("yes", AtomicType::Boolean).is_err());
    }

    #[test]
    fn datetime_roundtrip_and_order() {
        let a = AtomicValue::parse_as("2007-09-23T10:00:00Z", AtomicType::DateTime).unwrap();
        assert_eq!(a.lexical(), "2007-09-23T10:00:00Z");
        let b = AtomicValue::parse_as("2007-09-23T12:00:00+02:00", AtomicType::DateTime).unwrap();
        // 12:00+02:00 == 10:00Z
        assert_eq!(a.value_cmp(&b).unwrap(), Ordering::Equal);
        let c = AtomicValue::parse_as("2007-09-24T00:00:00Z", AtomicType::DateTime).unwrap();
        assert_eq!(a.value_cmp(&c).unwrap(), Ordering::Less);
    }

    #[test]
    fn date_roundtrip() {
        let v = AtomicValue::parse_as("2007-09-23", AtomicType::Date).unwrap();
        assert_eq!(v.lexical(), "2007-09-23");
        assert!(AtomicValue::parse_as("2007-13-01", AtomicType::Date).is_err());
    }

    #[test]
    fn duration_roundtrip() {
        let v = AtomicValue::parse_as("P1Y2M3DT4H5M6S", AtomicType::Duration).unwrap();
        match &v {
            AtomicValue::Duration(d) => {
                assert_eq!(d.months, 14);
                assert_eq!(d.seconds, 3.0 * 86400.0 + 4.0 * 3600.0 + 5.0 * 60.0 + 6.0);
            }
            _ => panic!(),
        }
        assert_eq!(v.lexical(), "P1Y2M3DT4H5M6S");
        assert_eq!(
            AtomicValue::parse_as("PT0S", AtomicType::Duration)
                .unwrap()
                .lexical(),
            "PT0S"
        );
    }

    #[test]
    fn numeric_promotion() {
        let (a, b) =
            AtomicValue::promote_pair(&AtomicValue::Integer(2), &AtomicValue::Double(3.1)).unwrap();
        assert_eq!(a.atomic_type(), AtomicType::Double);
        assert_eq!(b.atomic_type(), AtomicType::Double);
        let (a, b) = AtomicValue::promote_pair(
            &AtomicValue::Integer(2),
            &AtomicValue::Decimal(Decimal::parse("2.5").unwrap()),
        )
        .unwrap();
        assert_eq!(a.atomic_type(), AtomicType::Decimal);
        assert_eq!(b.atomic_type(), AtomicType::Decimal);
    }

    #[test]
    fn value_comparison_across_types() {
        assert_eq!(
            AtomicValue::Integer(2)
                .value_cmp(&AtomicValue::Double(2.0))
                .unwrap(),
            Ordering::Equal
        );
        assert!(AtomicValue::String("a".into())
            .value_cmp(&AtomicValue::Integer(1))
            .is_err());
    }

    #[test]
    fn general_comparison_untyped() {
        // untyped vs numeric -> double
        let u = AtomicValue::UntypedAtomic("10".into());
        assert!(u.general_eq(&AtomicValue::Integer(10)).unwrap());
        // untyped vs string -> string
        let u2 = AtomicValue::UntypedAtomic("abc".into());
        assert!(u2.general_eq(&AtomicValue::String("abc".into())).unwrap());
        // untyped vs untyped -> string compare
        assert!(AtomicValue::UntypedAtomic("x".into())
            .general_eq(&AtomicValue::UntypedAtomic("x".into()))
            .unwrap());
    }

    #[test]
    fn casts() {
        let i = AtomicValue::Integer(3);
        assert_eq!(i.cast_to(AtomicType::String).unwrap().lexical(), "3");
        let s = AtomicValue::String("2.5".into());
        assert_eq!(s.cast_to(AtomicType::Double).unwrap().lexical(), "2.5");
        assert!(AtomicValue::String("x".into())
            .cast_to(AtomicType::Integer)
            .is_err());
        assert_eq!(
            AtomicValue::Double(2.9)
                .cast_to(AtomicType::Integer)
                .unwrap()
                .lexical(),
            "2"
        );
        assert_eq!(
            AtomicValue::Double(-2.9)
                .cast_to(AtomicType::Integer)
                .unwrap()
                .lexical(),
            "-2"
        );
    }

    #[test]
    fn ebv_rules() {
        assert!(AtomicValue::Boolean(true).ebv().unwrap());
        assert!(!AtomicValue::String(String::new()).ebv().unwrap());
        assert!(AtomicValue::String("x".into()).ebv().unwrap());
        assert!(!AtomicValue::Integer(0).ebv().unwrap());
        assert!(!AtomicValue::Double(f64::NAN).ebv().unwrap());
        assert!(AtomicValue::parse_as("2007-01-01", AtomicType::Date)
            .unwrap()
            .ebv()
            .is_err());
    }

    #[test]
    fn negative_year_date() {
        let v = AtomicValue::parse_as("-0044-03-15", AtomicType::Date).unwrap();
        match v {
            AtomicValue::Date(d) => assert_eq!(d.year, -44),
            _ => panic!(),
        }
    }
}
