//! The byte layout of a finished page: head, inner HTML, tail.
//!
//! [`crate::Renderer::render_onto`] composes a page's inner HTML and hands
//! it to finalisation, which slides [`page_head`] in front and appends
//! the tail [`walk_tail`] visits — newline, padding up to the family's
//! nominal size, close. The same primitives answer "is this body already
//! that page?" ([`is_tail`]) without building anything, which is what
//! lets a regeneration that changed nothing hand the held body back.

use std::sync::OnceLock;

use bytes::Bytes;

/// Padding filler appended by finalisation (stands in for the inline
/// imagery the real 1998 pages carried).
const FILLER: &str = "Olympic coverage continues around the clock from Nagano. ";

/// The closing bytes of every finalised page.
const PAGE_CLOSE: &str = "</body></html>";

/// Fillers in the shared padding block: enough to pad an empty page of
/// the largest family (the 55 KB home page) with one slice.
const BLOCK_FILLERS: usize = 55_000 / FILLER.len() + 1;

/// The bytes behind every page's inner HTML, built once per process.
struct PageTail {
    newline: Bytes,
    /// `FILLER` × [`BLOCK_FILLERS`]; padding is a prefix slice of it.
    fillers: Bytes,
    close: Bytes,
}

fn page_tail() -> &'static PageTail {
    static TAIL: OnceLock<PageTail> = OnceLock::new();
    TAIL.get_or_init(|| PageTail {
        newline: Bytes::from_static(b"\n"),
        fillers: Bytes::from(FILLER.repeat(BLOCK_FILLERS)),
        close: Bytes::from_static(PAGE_CLOSE.as_bytes()),
    })
}

/// Visit the tail of a page whose head and inner HTML are `len` bytes and
/// whose family targets `target`: newline, padding, close. The padding is
/// one slice of the shared block (more only if a target ever outgrows it).
/// Returns the tail's length.
pub(crate) fn walk_tail(len: usize, target: usize, mut part: impl FnMut(&Bytes)) -> usize {
    let tail = page_tail();
    part(&tail.newline);
    let mut fillers = filler_repeats(len + tail.newline.len(), target);
    let padding = fillers * FILLER.len();
    while fillers > 0 {
        let n = fillers.min(BLOCK_FILLERS);
        part(&tail.fillers.slice(..n * FILLER.len()));
        fillers -= n;
    }
    part(&tail.close);
    tail.newline.len() + padding + tail.close.len()
}

/// Whether `tail` is what [`walk_tail`] appends behind `len` bytes of head
/// and inner HTML of a page targeting `target`.
pub(crate) fn is_tail(tail: &[u8], len: usize, target: usize) -> bool {
    let mut rest = Some(tail);
    walk_tail(len, target, |part| {
        rest = rest.and_then(|rest| rest.strip_prefix(&part[..]));
    });
    rest.is_some_and(<[u8]>::is_empty)
}

/// The page chrome above the skeleton: doctype, title, site header.
pub(crate) fn page_head(title: &str) -> String {
    const OPEN: &str = "<!doctype html><html><head><title>";
    const CLOSE: &str = "</title></head><body>\n\
         <header><a href=\"/day/1/\">Nagano 1998</a> · <a href=\"/medals\">Medals</a> · \
         <a href=\"/news/day/1\">News</a></header>\n";
    let mut head = String::with_capacity(OPEN.len() + title.len() + CLOSE.len());
    head.push_str(OPEN);
    head.push_str(title);
    head.push_str(CLOSE);
    head
}

/// Hand a finished buffer over as `Bytes` without copying it. A padded
/// page ends less than one filler short of the size its buffer was
/// reserved to; a buffer with more room to spare than that gives it back
/// first, so nothing cached pins more than its length plus one filler.
pub(crate) fn fitted(mut buf: Vec<u8>) -> Bytes {
    if buf.capacity() - buf.len() > FILLER.len() {
        buf.shrink_to_fit();
    }
    Bytes::from(buf)
}

/// How many `FILLER` repeats finalisation pads onto a page of `len` bytes
/// targeting `target`: fillers are added while one more, plus the close,
/// still ends short of the target.
fn filler_repeats(len: usize, target: usize) -> usize {
    target
        .saturating_sub(len + FILLER.len() + PAGE_CLOSE.len())
        .div_ceil(FILLER.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filler_arithmetic_matches_the_padding_loop() {
        let looped = |mut len: usize, target: usize| {
            let mut n = 0;
            while len + FILLER.len() + PAGE_CLOSE.len() < target {
                len += FILLER.len();
                n += 1;
            }
            n
        };
        for target in [0, 70, 71, 72, 128, 129, 2_000, 55_000] {
            for len in 0..target + 2 * FILLER.len() {
                assert_eq!(
                    filler_repeats(len, target),
                    looped(len, target),
                    "{len} → {target}"
                );
            }
        }
    }

    #[test]
    fn the_head_is_spelled_as_published() {
        assert_eq!(
            page_head("Medal Standings"),
            "<!doctype html><html><head><title>Medal Standings</title></head><body>\n\
             <header><a href=\"/day/1/\">Nagano 1998</a> · <a href=\"/medals\">Medals</a> \
             · <a href=\"/news/day/1\">News</a></header>\n"
        );
    }

    #[test]
    fn a_tail_longer_than_the_block_is_padded_in_several_slices() {
        let target = 2 * BLOCK_FILLERS * FILLER.len() + 500;
        let (mut tail, mut parts) = (Vec::new(), 0);
        let len = walk_tail(10, target, |part| {
            tail.extend_from_slice(part);
            parts += 1;
        });
        assert_eq!(len, tail.len());
        let fillers = filler_repeats(11, target);
        assert!(fillers > 2 * BLOCK_FILLERS);
        assert_eq!(
            tail,
            format!("\n{}{PAGE_CLOSE}", FILLER.repeat(fillers)).into_bytes()
        );
        assert_eq!(parts, 2 + 3, "newline, three slices of the block, close");
        // Every page of the site is padded with one.
        walk_tail(0, 55_000, |_| parts -= 1);
        assert_eq!(parts, 2);
    }
}
