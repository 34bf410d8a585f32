//! What the gate reads as code, and where test code starts and stops.

#[cfg(test)]
mod tests {
    use crate::{cases, LIB};

    /// A live function that unwraps: its finding shows the code was read.
    const LIVE: &str = "pub fn live(x: Option<u8>) -> u8 { x.unwrap() }\n";
    /// A unit test that unwraps, which `allow-unwrap-in-tests` permits.
    const TEST: &str = "#[test]\nfn t() { \"1\".parse::<u8>().unwrap(); }\n";

    cases! {
        strings_hide_their_contents(LIB) {
            "pub fn s() -> &'static str { \"HashMap::new() x.unwrap() unsafe {}\" }\n" => [];
        }
        /// A comment neither fires nor excuses: only `#[expect]` justifies.
        comments_hide_their_contents_but_are_kept(LIB) {
            "// std::collections::HashMap, x.unwrap()\npub fn f() {}\n" => [];
            format!("// justified: never None\n{LIVE}") => ["clippy::unwrap_used@2"];
        }
        char_literals_and_lifetimes(LIB) {
            "pub fn f<'a>(s: &'a str, t: &'a str, x: Option<u8>) -> (char, &'a str, u8) {\n    \
             ('\"', if x.is_some() { s } else { t }, x.unwrap())\n}\n" => ["clippy::unwrap_used@2"];
        }
        positions_are_one_based(LIB) {
            "use std::collections::HashMap;\npub type M = HashMap<u8, u8>;\n"
                => ["clippy::disallowed_types@1", "clippy::disallowed_types@2"];
        }
        cfg_test_module_is_flagged(LIB) {
            format!("{LIVE}#[cfg(test)]\nmod tests {{\n{TEST}}}\n") => ["clippy::unwrap_used@1"];
        }
        cfg_not_test_is_not_a_test_region(LIB) {
            format!("#[cfg(not(test))]\n{LIVE}") => ["clippy::unwrap_used@2"];
        }
        test_fn_attribute_is_flagged(LIB) {
            format!("{TEST}{LIVE}") => ["clippy::unwrap_used@3"];
        }
        cfg_test_use_without_body_does_not_arm_forever(LIB) {
            format!("#[cfg(test)]\nuse std::convert::identity;\n{LIVE}#[test]\nfn t() {{ identity(()) }}\n")
                => ["clippy::unwrap_used@3"];
        }
        nested_braces_close_the_right_region(LIB) {
            format!("#[cfg(test)]\npub fn t() {{ if 1 > 0 {{ {{ \"1\".parse::<u8>().unwrap(); }} }} }}\n{LIVE}")
                => ["clippy::unwrap_used@3"];
        }
    }
}
