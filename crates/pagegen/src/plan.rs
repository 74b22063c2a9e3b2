//! The byte layout of a finished page: head, inner HTML, tail.
//!
//! The tail is a newline, padding up to the family's nominal size, and the
//! close. The padding is aligned to the close: fewer spaces than one
//! filler, then whole fillers that end where the close begins. So every
//! page that fits its family's target is exactly that long, and any two
//! such pages agree from the first filler of either to the end — which is
//! what lets a page be written over a finished page of its size by
//! rewriting content, gap and the fillers shorter content uncovers
//! ([`write_over`]). The same primitives answer "is this body already that
//! page?" ([`is_page`]) without building anything, which is what lets a
//! regeneration that changed nothing hand the held body back.
//!
//! What a page begins with is a list of [`Parts`]: the head and the inner
//! HTML of a composed page ([`Content`]), or the runs of a held body
//! between the sections a patch rewrites and those sections' new HTML.

use std::sync::OnceLock;

/// Padding filler (stands in for the inline imagery the real 1998 pages
/// carried).
const FILLER: &str = "Olympic coverage continues around the clock from Nagano. ";

/// The closing bytes of every finished page.
const PAGE_CLOSE: &str = "</body></html>";

/// The gap before the first filler is shorter than one.
const SPACES: [u8; FILLER.len()] = [b' '; FILLER.len()];

/// Fillers in the shared padding block: enough to pad an empty page of
/// the largest family (the 55 KB home page) with one slice.
const BLOCK_FILLERS: usize = 55_000 / FILLER.len() + 1;

/// Visit `n` fillers as slices of a block built once per process: one
/// slice, unless a target ever outgrows the block.
fn for_fillers(mut n: usize, mut part: impl FnMut(&[u8])) {
    static BLOCK: OnceLock<Vec<u8>> = OnceLock::new();
    let block = BLOCK.get_or_init(|| FILLER.repeat(BLOCK_FILLERS).into_bytes());
    while n > 0 {
        let slice = n.min(BLOCK_FILLERS);
        part(&block[..slice * FILLER.len()]);
        n -= slice;
    }
}

/// The padding behind `len` bytes of head and inner HTML in a family
/// targeting `target`, as (spaces, fillers) — `None` when newline and
/// close alone reach past the target, and the page goes unpadded.
fn padding(len: usize, target: usize) -> Option<(usize, usize)> {
    let room = target.checked_sub(len + 1 + PAGE_CLOSE.len())?;
    Some((room % FILLER.len(), room / FILLER.len()))
}

/// Head and inner HTML, as the runs of bytes a finished page begins with.
pub(crate) trait Parts {
    /// Bytes of head and inner HTML together.
    fn len(&self) -> usize;

    /// Visit the runs, in order.
    fn each(&self, part: impl FnMut(&[u8]));
}

/// What a composed page begins with, in order: the page chrome above the
/// skeleton — doctype, title, site header — and the inner HTML.
pub(crate) struct Content<'a>([&'a str; 4]);

impl<'a> Content<'a> {
    /// The head titled `title`, then `inner`.
    pub(crate) fn new(title: &'a str, inner: &'a str) -> Self {
        const OPEN: &str = "<!doctype html><html><head><title>";
        const CLOSE: &str = "</title></head><body>\n\
             <header><a href=\"/day/1/\">Nagano 1998</a> · <a href=\"/medals\">Medals</a> · \
             <a href=\"/news/day/1\">News</a></header>\n";
        Content([OPEN, title, CLOSE, inner])
    }
}

impl Parts for Content<'_> {
    fn len(&self) -> usize {
        self.0.iter().map(|part| part.len()).sum()
    }

    fn each(&self, mut part: impl FnMut(&[u8])) {
        for content in self.0 {
            part(content.as_bytes());
        }
    }
}

/// Visit the page `content` begins: its parts, then the tail of a family
/// targeting `target` — newline, spaces, fillers, close.
fn walk(content: &impl Parts, target: usize, mut part: impl FnMut(&[u8])) {
    content.each(&mut part);
    part(b"\n");
    if let Some((spaces, fillers)) = padding(content.len(), target) {
        part(&SPACES[..spaces]);
        for_fillers(fillers, &mut part);
    }
    part(PAGE_CLOSE.as_bytes());
}

/// `content` finished as a page of a family targeting `target`, in a
/// buffer allocated to exactly its length: the target, if it fits.
pub(crate) fn finished(content: &impl Parts, target: usize) -> Vec<u8> {
    let mut page = Vec::with_capacity(target.max(content.len() + 1 + PAGE_CLOSE.len()));
    walk(content, target, |part| page.extend_from_slice(part));
    page
}

/// Whether `body` is what [`finished`] makes of `content` for a family
/// targeting `target`. A page that changed fails at its first changed
/// byte.
pub(crate) fn is_page(body: &[u8], content: &impl Parts, target: usize) -> bool {
    let mut rest = Some(body);
    walk(content, target, |part| {
        rest = rest.and_then(|rest| rest.strip_prefix(part));
    });
    rest.is_some_and(<[u8]>::is_empty)
}

/// Turn `page` — a page [`finished`] for a family targeting its length,
/// whose head and inner HTML were `old` bytes — into the page of
/// `content`, writing content, newline, spaces and the fillers that
/// shorter content uncovers: the rest it has already. Returns `false`,
/// leaving `page` as it was, when `content` does not fit.
pub(crate) fn write_over(page: &mut [u8], old: usize, content: &impl Parts) -> bool {
    let target = page.len();
    let (Some((spaces, _)), Some((old_spaces, _))) =
        (padding(content.len(), target), padding(old, target))
    else {
        return false;
    };
    // Both pages' fillers end where the close begins: where one's begin
    // is a whole number of fillers from where the other's do.
    let fillers_at = content.len() + 1 + spaces;
    let uncovered = (old + 1 + old_spaces).saturating_sub(fillers_at) / FILLER.len();
    let mut at = 0;
    let mut write = |part: &[u8]| {
        page[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    };
    content.each(&mut write);
    write(b"\n");
    write(&SPACES[..spaces]);
    for_fillers(uncovered, write);
    true
}

/// The `old` to write over `page` with when what its head and inner HTML
/// were is not known: all of it but a newline and the close, so that
/// [`write_over`] rewrites every byte before the close — `None` unless
/// `page` ends with the close, the one part it leaves as it is.
pub(crate) fn unknown_content(page: &[u8]) -> Option<usize> {
    let old = page.len().checked_sub(1 + PAGE_CLOSE.len())?;
    page.ends_with(PAGE_CLOSE.as_bytes()).then_some(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const F: usize = FILLER.len();

    /// The longest inner HTML a page titled "t" can have and still fit.
    fn room(target: usize) -> usize {
        target - Content::new("t", "").len() - 1 - PAGE_CLOSE.len()
    }

    #[test]
    fn the_head_is_spelled_as_published() {
        assert_eq!(
            Content::new("Medal Standings", "").0.concat(),
            "<!doctype html><html><head><title>Medal Standings</title></head><body>\n\
             <header><a href=\"/day/1/\">Nagano 1998</a> · <a href=\"/medals\">Medals</a> \
             · <a href=\"/news/day/1\">News</a></header>\n"
        );
    }

    #[test]
    fn a_fitting_page_is_exactly_its_target_long() {
        let head = Content::new("t", "").len();
        // Targets at the edge of fitting, of the site's families, and past
        // the shared block of fillers.
        for target in [head + 15, head + 16, 2_000, 55_000, 2 * 55_000 + 500] {
            for inner in (0..400).chain(room(target).saturating_sub(2 * F)..room(target) + 3) {
                let inner = "x".repeat(inner);
                let content = Content::new("t", &inner);
                let page = finished(&content, target);
                assert!(is_page(&page, &content, target));
                assert_eq!(page.capacity(), page.len(), "allocated to its length");
                let tail = page[content.len()..].strip_prefix(b"\n").unwrap();
                let tail = tail.strip_suffix(PAGE_CLOSE.as_bytes()).unwrap();
                if inner.len() > room(target) {
                    assert!(tail.is_empty(), "{} bytes past {target}", page.len());
                    continue;
                }
                assert_eq!(page.len(), target, "{} bytes of inner HTML", inner.len());
                let spaces = tail.iter().take_while(|&&b| b == b' ').count();
                assert!(spaces < F);
                let fillers = &tail[spaces..];
                assert_eq!(fillers, FILLER.repeat(fillers.len() / F).as_bytes());
            }
        }
    }

    /// Head and inner HTML cut into runs anywhere, as a patch hands them.
    struct Runs<'a>(Vec<&'a [u8]>);

    impl Parts for Runs<'_> {
        fn len(&self) -> usize {
            self.0.iter().map(|run| run.len()).sum()
        }

        fn each(&self, mut part: impl FnMut(&[u8])) {
            for run in &self.0 {
                part(run);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A page finished, compared or written over from runs is the page
        /// of the bytes they run through, wherever they are cut.
        #[test]
        fn a_page_of_runs_is_the_page_of_their_bytes(
            target in prop_oneof![Just(3_000usize), Just(55_000)],
            inner in prop_oneof![Just(0usize), 0..3_200usize],
            old in 0..3_200usize,
            cuts in proptest::collection::vec(0.0..1.0f64, 0..6),
        ) {
            let html = "n".repeat(inner);
            let content = Content::new("t", &html);
            let mut bytes = Vec::new();
            content.each(|part| bytes.extend_from_slice(part));
            let cut = |c: &f64| (c * bytes.len() as f64) as usize;
            let mut at: Vec<usize> = cuts.iter().map(cut).collect();
            at.sort_unstable();
            let mut runs = Runs(Vec::new());
            let mut from = 0;
            for cut in at.into_iter().chain([bytes.len()]) {
                runs.0.push(&bytes[from..cut]);
                from = cut;
            }
            let page = finished(&content, target);
            prop_assert!(finished(&runs, target) == page);
            prop_assert!(is_page(&page, &runs, target));
            let old_html = "o".repeat(old);
            let old = Content::new("t", &old_html);
            let mut over = finished(&old, target);
            if over.len() == target && write_over(&mut over, old.len(), &runs) {
                prop_assert!(over == page);
            }
        }
    }

    /// Any bytes of a page's length that end with the close, written over
    /// as if their content were unknown, become the page.
    #[test]
    fn writing_over_unknown_content_rewrites_all_of_it() {
        let html = "n".repeat(1_000);
        let content = Content::new("t", &html);
        for target in [3_000, 55_000] {
            let fresh = finished(&content, target);
            let mut junk = vec![b'#'; target];
            assert_eq!(unknown_content(&junk), None, "no close");
            junk[target - PAGE_CLOSE.len()..].copy_from_slice(PAGE_CLOSE.as_bytes());
            let old = unknown_content(&junk).unwrap();
            assert!(write_over(&mut junk, old, &content));
            assert!(junk == fresh, "target {target}");
        }
        assert_eq!(unknown_content(PAGE_CLOSE.as_bytes()), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any page written over any finished page of its size is the
        /// page finishing it afresh makes: content shorter, equal or
        /// longer by up to two fillers and part of one, or of any other
        /// length; content that does not fit leaves the buffer as it was.
        #[test]
        fn writing_over_a_finished_page_equals_finishing_afresh(
            target in prop_oneof![Just(3_000usize), Just(55_000), Just(2 * 55_000 + 500)],
            old_at in prop_oneof![Just(1.0f64), 0.0..1.0f64],
            fillers in 0..=2usize,
            bytes in prop_oneof![Just(0usize), 0..F],
            longer in any::<bool>(),
            anywhere in prop_oneof![Just(None), (0.0..1.1f64).prop_map(Some)],
        ) {
            let fits = room(target);
            let old_inner = (old_at * fits as f64) as usize;
            let new_inner = match anywhere {
                Some(at) => (at * fits as f64) as usize,
                None if longer => old_inner + fillers * F + bytes,
                None => old_inner.saturating_sub(fillers * F + bytes),
            };
            let (old_html, new_html) = ("o".repeat(old_inner), "n".repeat(new_inner));
            let old = Content::new("t", &old_html);
            let new = Content::new("t", &new_html);
            let mut page = finished(&old, target);
            prop_assert_eq!(page.len(), target);
            let fresh = finished(&new, target);
            if write_over(&mut page, old.len(), &new) {
                prop_assert!(page == fresh, "{new_inner} bytes over {old_inner}, target {target}");
            } else {
                prop_assert!(new_inner > fits);
                prop_assert!(page == finished(&old, target));
            }
        }
    }
}
