//! JSON conversions for the fundamental types.

use crate::constraint::{AttrConstraint, Constraint};
use crate::row::Row;
use crate::value::Value;
use payless_json::{err, FromJson, Json, Result, ToJson};

impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Int(v) => Json::obj([("i", v.to_json())]),
            Value::Float(v) => Json::obj([("f", v.to_json())]),
            Value::Str(s) => Json::obj([("s", s.to_json())]),
        }
    }
}

impl FromJson for Value {
    fn from_json(j: &Json) -> Result<Self> {
        match j.as_obj()? {
            [(k, v)] if k == "i" => Ok(Value::Int(v.as_i64()?)),
            [(k, v)] if k == "f" => Ok(Value::Float(v.as_f64()?)),
            [(k, v)] if k == "s" => Ok(Value::str(v.as_str()?)),
            _ => err(format!("bad value encoding: {j}")),
        }
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        self.values().to_json()
    }
}

impl FromJson for Row {
    fn from_json(j: &Json) -> Result<Self> {
        Ok(Row::new(Vec::<Value>::from_json(j)?))
    }
}

impl ToJson for Constraint {
    fn to_json(&self) -> Json {
        match self {
            Constraint::Eq(v) => Json::obj([("eq", v.to_json())]),
            Constraint::IntRange { lo, hi } => {
                Json::obj([("lo", lo.to_json()), ("hi", hi.to_json())])
            }
        }
    }
}

impl FromJson for Constraint {
    fn from_json(j: &Json) -> Result<Self> {
        if let Some(v) = j.get_opt("eq") {
            Ok(Constraint::Eq(Value::from_json(v)?))
        } else {
            Ok(Constraint::IntRange {
                lo: j.get("lo")?.as_i64()?,
                hi: j.get("hi")?.as_i64()?,
            })
        }
    }
}

impl ToJson for AttrConstraint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("attr", self.attr.to_json()),
            ("constraint", self.constraint.to_json()),
        ])
    }
}

impl FromJson for AttrConstraint {
    fn from_json(j: &Json) -> Result<Self> {
        Ok(AttrConstraint {
            attr: FromJson::from_json(j.get("attr")?)?,
            constraint: FromJson::from_json(j.get("constraint")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_json::parse;

    fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: T) {
        let text = v.to_json().to_string_compact();
        let back = T::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, v, "round trip via {text}");
    }

    #[test]
    fn values_round_trip() {
        round_trip(Value::int(-(1 << 62)));
        round_trip(Value::Float(f64::NAN));
        round_trip(Value::Float(-0.0));
        round_trip(Value::str("hi \"there\""));
        round_trip(Row::new(vec![Value::int(1), Value::str("x")]));
    }

    #[test]
    fn constraints_round_trip() {
        round_trip(Constraint::Eq(Value::str("v")));
        round_trip(Constraint::IntRange { lo: -3, hi: 7 });
    }
}
