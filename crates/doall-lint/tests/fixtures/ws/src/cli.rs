//! H001 fixture: the CLI's command-line parser is in scope — a
//! panicking shortcut here must fire.
pub fn first_arg(args: &[String]) -> &str {
    args.first().expect("one argument")
}
