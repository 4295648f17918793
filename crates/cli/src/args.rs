//! Minimal `--flag value` argument parsing (no external dependencies).
//!
//! A flag immediately followed by another flag (or by the end of the
//! argument list) is a bare boolean switch and parses as `"true"`, so
//! `--quiet` and `--quiet true` are equivalent.

use std::collections::HashMap;

/// Parsed `--flag value` pairs.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    flags: HashMap<String, String>,
}

impl ParsedArgs {
    /// Parses a flat list of `--flag value` pairs and bare `--flag`
    /// boolean switches.
    pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            let (value, consumed) = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => (v.clone(), 2),
                _ => ("true".to_string(), 1),
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
            i += consumed;
        }
        Ok(ParsedArgs { flags })
    }

    /// Required string flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Optional typed flag with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse '{v}'")),
        }
    }

    /// Fails on a flag that is not in `known` (the first by name), so a
    /// misspelled flag stops the command instead of being ignored.
    pub fn reject_unknown(&self, subcommand: &str, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .min()
        {
            Some(name) => Err(format!("unknown flag --{name} for {subcommand}")),
            None => Ok(()),
        }
    }

    /// Optional typed flag.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{name}: cannot parse '{v}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn parses_flag_value_pairs() {
        let a = ParsedArgs::parse(&s(&["--input", "x.txt", "--k", "70"])).unwrap();
        assert_eq!(a.required("input").unwrap(), "x.txt");
        assert_eq!(a.get_or::<usize>("k", 0).unwrap(), 70);
        assert_eq!(a.get_or::<usize>("missing", 5).unwrap(), 5);
        assert_eq!(a.optional("nope"), None);
    }

    #[test]
    fn rejects_bare_values_and_duplicates() {
        assert!(ParsedArgs::parse(&s(&["input"])).is_err());
        assert!(ParsedArgs::parse(&s(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn bare_flags_parse_as_boolean_switches() {
        let a =
            ParsedArgs::parse(&s(&["--metrics", "--metrics-out", "m.json", "--quiet"])).unwrap();
        assert!(a.get_or("metrics", false).unwrap());
        assert_eq!(a.required("metrics-out").unwrap(), "m.json");
        assert!(a.get_or("quiet", false).unwrap());
        // Explicit values still work, including negative numbers.
        let b = ParsedArgs::parse(&s(&["--quiet", "false", "--threshold", "-1"])).unwrap();
        assert!(!b.get_or("quiet", true).unwrap());
        assert_eq!(b.get::<f64>("threshold").unwrap(), Some(-1.0));
    }

    #[test]
    fn typed_parse_errors_are_reported() {
        let a = ParsedArgs::parse(&s(&["--k", "seventy"])).unwrap();
        assert!(a.get_or::<usize>("k", 0).is_err());
        assert!(a.get::<f64>("k").is_err());
        let b = ParsedArgs::parse(&s(&["--t", "0.5"])).unwrap();
        assert_eq!(b.get::<f64>("t").unwrap(), Some(0.5));
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        let a = ParsedArgs::parse(&[]).unwrap();
        assert!(a.required("input").is_err());
    }
}
