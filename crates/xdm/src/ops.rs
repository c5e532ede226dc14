//! Arithmetic on atomic values with XQuery promotion rules.

use crate::atomic::AtomicValue;
use crate::decimal::Decimal;
use crate::error::{XdmError, XdmResult};

/// Binary arithmetic operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::IDiv => "idiv",
            ArithOp::Mod => "mod",
        }
    }
}

/// Evaluate `a op b` with numeric promotion. Untyped operands are cast to
/// double first (XQuery §3.4).
pub fn arith(op: ArithOp, a: &AtomicValue, b: &AtomicValue) -> XdmResult<AtomicValue> {
    use crate::types::AtomicType as T;
    // the common pair needs no promotion, hence no copies
    if let (AtomicValue::Integer(x), AtomicValue::Integer(y)) = (a, b) {
        return int_arith(op, *x, *y);
    }
    let a = match a {
        AtomicValue::UntypedAtomic(_) => a.cast_to(T::Double)?,
        _ => a.clone(),
    };
    let b = match b {
        AtomicValue::UntypedAtomic(_) => b.cast_to(T::Double)?,
        _ => b.clone(),
    };
    let (pa, pb) = AtomicValue::promote_pair(&a, &b)?;
    match (pa, pb) {
        (AtomicValue::Integer(x), AtomicValue::Integer(y)) => int_arith(op, x, y),
        (AtomicValue::Decimal(x), AtomicValue::Decimal(y)) => dec_arith(op, x, y),
        (AtomicValue::Double(x), AtomicValue::Double(y)) => dbl_arith(op, x, y),
        (AtomicValue::Float(x), AtomicValue::Float(y)) => {
            let r = dbl_arith(op, x as f64, y as f64)?;
            match r {
                AtomicValue::Double(d) => Ok(AtomicValue::Float(d as f32)),
                other => Ok(other),
            }
        }
        _ => unreachable!("promotion yields a numeric pair"),
    }
}

fn int_arith(op: ArithOp, x: i64, y: i64) -> XdmResult<AtomicValue> {
    let overflow = || XdmError::new("FOAR0002", "integer overflow");
    Ok(match op {
        ArithOp::Add => AtomicValue::Integer(x.checked_add(y).ok_or_else(overflow)?),
        ArithOp::Sub => AtomicValue::Integer(x.checked_sub(y).ok_or_else(overflow)?),
        ArithOp::Mul => AtomicValue::Integer(x.checked_mul(y).ok_or_else(overflow)?),
        ArithOp::Div => {
            // integer div yields xs:decimal
            return dec_arith(ArithOp::Div, Decimal::from_i64(x), Decimal::from_i64(y));
        }
        ArithOp::IDiv => {
            if y == 0 {
                return Err(XdmError::div_by_zero());
            }
            AtomicValue::Integer(x.checked_div(y).ok_or_else(overflow)?)
        }
        ArithOp::Mod => {
            if y == 0 {
                return Err(XdmError::div_by_zero());
            }
            AtomicValue::Integer(x % y)
        }
    })
}

fn dec_arith(op: ArithOp, x: Decimal, y: Decimal) -> XdmResult<AtomicValue> {
    Ok(match op {
        ArithOp::Add => AtomicValue::Decimal(x.add(y)),
        ArithOp::Sub => AtomicValue::Decimal(x.sub(y)),
        ArithOp::Mul => AtomicValue::Decimal(x.mul(y)),
        ArithOp::Div => AtomicValue::Decimal(x.div(y)?),
        ArithOp::IDiv => AtomicValue::Integer(x.idiv(y)?),
        ArithOp::Mod => AtomicValue::Decimal(x.rem(y)?),
    })
}

fn dbl_arith(op: ArithOp, x: f64, y: f64) -> XdmResult<AtomicValue> {
    Ok(match op {
        ArithOp::Add => AtomicValue::Double(x + y),
        ArithOp::Sub => AtomicValue::Double(x - y),
        ArithOp::Mul => AtomicValue::Double(x * y),
        // double division by zero yields INF, not an error (IEEE semantics)
        ArithOp::Div => AtomicValue::Double(x / y),
        ArithOp::IDiv => {
            if y == 0.0 {
                return Err(XdmError::div_by_zero());
            }
            let q = (x / y).trunc();
            if q.is_nan() || q.is_infinite() {
                return Err(XdmError::new("FOAR0002", "idiv overflow"));
            }
            AtomicValue::Integer(q as i64)
        }
        ArithOp::Mod => AtomicValue::Double(x % y),
    })
}

/// Unary minus.
pub fn negate(v: &AtomicValue) -> XdmResult<AtomicValue> {
    Ok(match v {
        AtomicValue::Integer(i) => AtomicValue::Integer(
            i.checked_neg()
                .ok_or_else(|| XdmError::new("FOAR0002", "integer overflow"))?,
        ),
        AtomicValue::Decimal(d) => AtomicValue::Decimal(-*d),
        AtomicValue::Double(d) => AtomicValue::Double(-d),
        AtomicValue::Float(f) => AtomicValue::Float(-f),
        AtomicValue::UntypedAtomic(_) => negate(&v.cast_to(crate::types::AtomicType::Double)?)?,
        other => {
            return Err(XdmError::type_error(format!(
                "cannot negate {}",
                other.atomic_type()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: i64) -> AtomicValue {
        AtomicValue::Integer(i)
    }
    fn dec(s: &str) -> AtomicValue {
        AtomicValue::Decimal(Decimal::parse(s).unwrap())
    }
    fn dbl(d: f64) -> AtomicValue {
        AtomicValue::Double(d)
    }

    #[test]
    fn integer_ops() {
        assert_eq!(
            arith(ArithOp::Add, &int(2), &int(3)).unwrap().lexical(),
            "5"
        );
        assert_eq!(
            arith(ArithOp::Mul, &int(4), &int(5)).unwrap().lexical(),
            "20"
        );
        assert_eq!(
            arith(ArithOp::IDiv, &int(7), &int(2)).unwrap().lexical(),
            "3"
        );
        assert_eq!(
            arith(ArithOp::Mod, &int(7), &int(2)).unwrap().lexical(),
            "1"
        );
    }

    #[test]
    fn integer_div_yields_decimal() {
        let r = arith(ArithOp::Div, &int(1), &int(8)).unwrap();
        assert_eq!(r.atomic_type(), crate::types::AtomicType::Decimal);
        assert_eq!(r.lexical(), "0.125");
    }

    #[test]
    fn integer_div_by_zero_errors() {
        assert!(arith(ArithOp::Div, &int(1), &int(0)).is_err());
        assert!(arith(ArithOp::IDiv, &int(1), &int(0)).is_err());
        assert!(arith(ArithOp::Mod, &int(1), &int(0)).is_err());
    }

    #[test]
    fn double_div_by_zero_is_inf() {
        assert_eq!(
            arith(ArithOp::Div, &dbl(1.0), &dbl(0.0)).unwrap().lexical(),
            "INF"
        );
    }

    #[test]
    fn mixed_promotion() {
        let r = arith(ArithOp::Add, &int(1), &dec("0.5")).unwrap();
        assert_eq!(r.lexical(), "1.5");
        let r = arith(ArithOp::Add, &dec("0.5"), &dbl(1.0)).unwrap();
        assert_eq!(r.atomic_type(), crate::types::AtomicType::Double);
    }

    #[test]
    fn untyped_goes_double() {
        let u = AtomicValue::UntypedAtomic("4".into());
        let r = arith(ArithOp::Mul, &u, &int(2)).unwrap();
        assert_eq!(r.atomic_type(), crate::types::AtomicType::Double);
        assert_eq!(r.lexical(), "8");
    }

    #[test]
    fn overflow_detected() {
        assert!(arith(ArithOp::Add, &int(i64::MAX), &int(1)).is_err());
        assert!(negate(&int(i64::MIN)).is_err());
    }

    #[test]
    fn negate_types() {
        assert_eq!(negate(&int(3)).unwrap().lexical(), "-3");
        assert_eq!(negate(&dec("1.5")).unwrap().lexical(), "-1.5");
        assert!(negate(&AtomicValue::String("x".into())).is_err());
    }
}
