//! Offline drop-in subset of `serde_json`: `to_string` and `from_str`,
//! delegating to the serde shim's JSON-native traits.

pub use serde::json::Error;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Parses a `T` from a JSON document.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = serde::json::Parser::new(s);
    let value = T::deserialize_json(&mut p)?;
    p.expect_end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    #[test]
    fn round_trip_via_public_api() {
        let v = vec![1u64, 2, 3];
        let s = super::to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        let back: Vec<u64> = super::from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(super::from_str::<u64>("1 x").is_err());
    }
}
