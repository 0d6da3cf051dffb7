//! JSON conversions for geometry types, used by `wal.log` spend records.

use crate::interval::Interval;
use crate::region::Region;
use payless_json::{err, FromJson, Json, Result, ToJson};

impl ToJson for Interval {
    fn to_json(&self) -> Json {
        Json::Arr(vec![Json::Int(self.lo), Json::Int(self.hi)])
    }
}

impl FromJson for Interval {
    fn from_json(j: &Json) -> Result<Self> {
        match j.as_arr()? {
            [lo, hi] => {
                let (lo, hi) = (lo.as_i64()?, hi.as_i64()?);
                if lo > hi {
                    return err(format!("empty interval [{lo}, {hi}]"));
                }
                Ok(Interval::new(lo, hi))
            }
            other => err(format!("expected interval pair, got {} items", other.len())),
        }
    }
}

impl ToJson for Region {
    fn to_json(&self) -> Json {
        self.dims().to_json()
    }
}

impl FromJson for Region {
    fn from_json(j: &Json) -> Result<Self> {
        let dims = Vec::<Interval>::from_json(j)?;
        if dims.is_empty() {
            return err("a region needs at least one dimension");
        }
        Ok(Region::new(dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_json::parse;

    #[test]
    fn regions_round_trip() {
        let r = Region::new(vec![Interval::new(-5, 9), Interval::new(0, 0)]);
        let text = r.to_json().to_string_compact();
        assert_eq!(Region::from_json(&parse(&text).unwrap()).unwrap(), r);
        assert!(Interval::from_json(&parse("[3,1]").unwrap()).is_err());
        assert!(Region::from_json(&parse("[]").unwrap()).is_err());
    }
}
