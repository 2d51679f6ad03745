//! H001 fixture: the harness is a driver, but its input parsers are in
//! scope — a panicking shortcut here must fire.
pub fn first_line(text: &str) -> &str {
    text.lines().next().unwrap()
}
