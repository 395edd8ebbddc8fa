//! Damage for the reader proptests: the ways a persisted text file goes
//! bad on disk or in transit.

/// How many kinds of damage [`apply`] knows.
pub(crate) const KINDS: usize = 5;

/// `text` damaged in one of [`KINDS`] ways, picked by `kind`: cut at
/// byte `at` (a fraction of the length), byte `at` replaced by `ascii`,
/// or the line at `at` dropped, duplicated or swapped with the next one
/// (the last line swaps with the first).
pub(crate) fn apply(text: &str, kind: usize, at: f64, ascii: u8) -> String {
    assert!(text.is_ascii(), "every byte is a char boundary");
    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
    let line = ((at * lines.len() as f64) as usize).min(lines.len() - 1);
    let byte = ((at * text.len() as f64) as usize).min(text.len() - 1);
    match kind % KINDS {
        0 => text[..byte].to_string(),
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            bytes[byte] = ascii;
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        }
        2 => {
            lines.remove(line);
            lines.concat()
        }
        3 => {
            lines.insert(line, lines[line]);
            lines.concat()
        }
        _ => {
            // A swapped-in last line may lack its newline; give every
            // line one so the swap reorders lines and merges none.
            let mut whole: Vec<String> = lines
                .iter()
                .map(|l| l.strip_suffix('\n').unwrap_or(l).to_string() + "\n")
                .collect();
            let len = whole.len();
            whole.swap(line, (line + 1) % len);
            whole.concat()
        }
    }
}
