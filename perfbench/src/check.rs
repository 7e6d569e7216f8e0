//! Answer checks: every response is compared with the in-process reference
//! answer fixed at generation time.

use crate::gen::{Expect, Op};

/// The top-level members of a JSON object, as raw value slices (nested
/// objects and arrays stay unparsed). One linear scan, so multi-megabyte
/// forest answers cost no tree building.
pub fn members(json: &str) -> Option<Vec<(&str, &str)>> {
    let bytes = json.as_bytes();
    let mut i = skip_ws(bytes, 0);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    let mut out = Vec::new();
    loop {
        i = skip_ws(bytes, i);
        match bytes.get(i)? {
            b'}' => return Some(out),
            b',' => i += 1,
            b'"' => {
                let key_end = skip_string(bytes, i)?;
                let key = &json[i + 1..key_end - 1];
                i = skip_ws(bytes, key_end);
                if bytes.get(i) != Some(&b':') {
                    return None;
                }
                let start = skip_ws(bytes, i + 1);
                let end = skip_value(bytes, start)?;
                out.push((key, &json[start..end]));
                i = end;
            }
            _ => return None,
        }
    }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// `i` is at an opening quote; returns the index just past the closing one.
fn skip_string(bytes: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    loop {
        match bytes.get(i)? {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
}

fn skip_value(bytes: &[u8], mut i: usize) -> Option<usize> {
    match bytes.get(i)? {
        b'"' => skip_string(bytes, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            loop {
                match bytes.get(i)? {
                    b'"' => {
                        i = skip_string(bytes, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        _ => {
            while !matches!(bytes.get(i), None | Some(b',' | b'}' | b']'))
                && !bytes[i].is_ascii_whitespace()
            {
                i += 1;
            }
            Some(i)
        }
    }
}

fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("answer has no `{key}`"))
}

fn expect_eq(fields: &[(&str, &str)], key: &str, want: &str) -> Result<(), String> {
    let got = field(fields, key)?;
    if got == want {
        Ok(())
    } else {
        Err(format!("`{key}` is {got}, the reference says {want}"))
    }
}

/// Check one response against its op's reference answer.
pub fn check(op: &Op, status: u16, body: &[u8]) -> Result<(), String> {
    let want_status = if matches!(op.expect, Expect::Create { .. }) {
        201
    } else {
        200
    };
    if status != want_status {
        let text = String::from_utf8_lossy(&body[..body.len().min(200)]);
        return Err(format!("status {status}, wanted {want_status}: {text}"));
    }
    if op.expect == Expect::Scrape {
        return if body.is_empty() {
            Err("empty metrics scrape".to_owned())
        } else {
            Ok(())
        };
    }
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_owned())?;
    let fields = members(text).ok_or_else(|| "answer is not a JSON object".to_owned())?;
    match &op.expect {
        Expect::Route { found } => {
            expect_eq(&fields, "found", &found.to_string())?;
            if *found {
                expect_eq(&fields, "validated", "true")?;
            }
            Ok(())
        }
        Expect::Forest { nodes, branches } => {
            expect_eq(&fields, "num_nodes", &nodes.to_string())?;
            expect_eq(&fields, "num_branches", &branches.to_string())
        }
        Expect::Edit { seq, target_tuples } => {
            expect_eq(&fields, "edit_seq", &seq.to_string())?;
            expect_eq(&fields, "target_tuples", &target_tuples.to_string())
        }
        Expect::Create {
            session,
            target_tuples,
            core_after,
        } => {
            expect_eq(&fields, "session", &session.to_string())?;
            expect_eq(&fields, "target_tuples", &target_tuples.to_string())?;
            if let Some(after) = core_after {
                let pipeline = members(field(&fields, "pipeline")?)
                    .ok_or_else(|| "`pipeline` is not an object".to_owned())?;
                expect_eq(&pipeline, "core_tuples_after", &after.to_string())?;
            }
            Ok(())
        }
        Expect::Deleted => expect_eq(&fields, "deleted", "true"),
        Expect::Scrape => unreachable!("handled above"),
    }
}
