//! Composition plans: a page as static skeleton + fragment slots.
//!
//! [`crate::Renderer::plan`] runs the same `compose` pass as a full
//! render, but every `inline_fragment` call records a *slot* (a byte
//! offset and a [`FragmentKey`]) instead of rendering the fragment
//! inline. The result is a [`CompositionPlan`]: the skeleton split into
//! immutable segments around the slots, the page head, the dependency
//! list, and the cost split between skeleton rendering and composition.
//!
//! Composing a plan — splicing cached fragment bodies into the slots and
//! applying the legacy padding rule — is **byte-identical to the whole-
//! page renderer by construction**: the skeleton bytes come from the same
//! compose pass, the fragments come from the same `compose_fragment`, and
//! the head/padding/close primitives here are the very ones
//! `Renderer::render`'s finalisation calls. The fragment-equivalence
//! proptest suite (`tests/tests/fragment_equivalence.rs`) holds this
//! property over arbitrary seeds, days, and transaction prefixes.

use std::sync::OnceLock;

use bytes::Bytes;

use crate::key::{FragmentKey, PageKey};
use crate::render::{target_bytes, Dependency};

/// Padding filler appended by finalisation (stands in for the inline
/// imagery the real 1998 pages carried).
pub(crate) const FILLER: &str = "Olympic coverage continues around the clock from Nagano. ";

/// The closing bytes of every finalised page.
pub(crate) const PAGE_CLOSE: &str = "</body></html>";

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
    format!(
        "<!doctype html><html><head><title>{title}</title></head><body>\n\
         <header><a href=\"/day/1/\">Nagano 1998</a> · <a href=\"/medals\">Medals</a> · \
         <a href=\"/news/day/1\">News</a></header>\n"
    )
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

/// A composed page as a rope of zero-copy slices: page head, skeleton
/// segments, cached fragment bodies, padding, close — in wire order.
/// Feed the parts straight to a vectored write, or flatten once with
/// [`ComposedPage::to_bytes`] for cache distribution.
#[derive(Debug, Clone)]
pub struct ComposedPage {
    /// The body slices in order; every part is non-empty.
    pub parts: Vec<Bytes>,
    len: usize,
}

impl ComposedPage {
    /// Total body length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flatten into one contiguous body: the parts are copied once into a
    /// buffer of exactly the body's length, which the returned `Bytes`
    /// takes over.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.len);
        for p in &self.parts {
            out.extend_from_slice(p);
        }
        Bytes::from(out)
    }
}

/// A page split into its static skeleton and fragment slots.
///
/// `segments.len() == slots.len() + 1`; slot `i` splices between
/// `segments[i]` and `segments[i + 1]`. Pages without fragments (athlete,
/// country, news) are one-segment plans; fragment pages themselves are a
/// single slot with empty segments (the page *is* its fragment, finalised).
#[derive(Debug, Clone)]
pub struct CompositionPlan {
    key: PageKey,
    title: String,
    head: Bytes,
    segments: Vec<Bytes>,
    slots: Vec<FragmentKey>,
    deps: Vec<Dependency>,
    skeleton_cost_ms: f64,
    compose_cost_ms: f64,
    target: usize,
}

impl CompositionPlan {
    /// Build a plan from one slot-recording compose pass (called by
    /// [`crate::Renderer::plan`]).
    pub(crate) fn assemble(
        key: PageKey,
        title: String,
        inner: String,
        slot_offsets: Vec<(usize, FragmentKey)>,
        deps: Vec<Dependency>,
        skeleton_cost_ms: f64,
        compose_cost_ms: f64,
    ) -> Self {
        let skeleton = fitted(inner.into_bytes());
        let mut segments = Vec::with_capacity(slot_offsets.len() + 1);
        let mut slots = Vec::with_capacity(slot_offsets.len());
        let mut at = 0;
        for (off, f) in slot_offsets {
            debug_assert!(off >= at, "slot offsets must be non-decreasing");
            segments.push(skeleton.slice(at..off));
            slots.push(f);
            at = off;
        }
        segments.push(skeleton.slice(at..));
        let head = fitted(page_head(&title).into_bytes());
        CompositionPlan {
            key,
            title,
            head,
            segments,
            slots,
            deps,
            skeleton_cost_ms,
            compose_cost_ms,
            target: target_bytes(key),
        }
    }

    /// The page this plan composes.
    pub fn key(&self) -> PageKey {
        self.key
    }

    /// The page title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The fragment slots, in splice order.
    pub fn slots(&self) -> &[FragmentKey] {
        &self.slots
    }

    /// Whether the page embeds any fragments.
    pub fn has_slots(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Every dependency the composed page registers with DUP — skeleton
    /// data edges plus fragment object edges, identical to the legacy
    /// whole-page render's list.
    pub fn deps(&self) -> &[Dependency] {
        &self.deps
    }

    /// The *skeleton* data dependencies: everything the non-fragment part
    /// of the page read (fragment object edges excluded). If none of
    /// these changed, the cached skeleton is still fresh and the page can
    /// be recomposed without re-rendering.
    pub fn data_deps(&self) -> impl Iterator<Item = &Dependency> {
        self.deps
            .iter()
            .filter(|d| !d.data_key.starts_with("page:"))
    }

    /// Whether any skeleton data dependency satisfies `changed` — the
    /// recompose-vs-re-render decision for one update batch.
    pub fn skeleton_depends_on<F: FnMut(&str) -> bool>(&self, mut changed: F) -> bool {
        self.data_deps().any(|d| changed(&d.data_key))
    }

    /// Modelled CPU cost (ms) of rebuilding this plan's skeleton.
    pub fn skeleton_cost_ms(&self) -> f64 {
        self.skeleton_cost_ms
    }

    /// Modelled CPU cost (ms) of one composition from cached fragments.
    pub fn compose_cost_ms(&self) -> f64 {
        self.compose_cost_ms
    }

    /// Visit the composed page's non-empty parts in wire order — head,
    /// skeleton segments around the resolved fragment bodies, padding,
    /// close — and return the total length. `None` as soon as a fragment
    /// is missing.
    fn walk<F, P>(&self, mut resolve: F, mut part: P) -> Option<usize>
    where
        F: FnMut(FragmentKey) -> Option<Bytes>,
        P: FnMut(&Bytes),
    {
        let mut len = 0usize;
        let mut emit = |len: &mut usize, b: &Bytes| {
            if !b.is_empty() {
                *len += b.len();
                part(b);
            }
        };
        emit(&mut len, &self.head);
        for (segment, &slot) in self.segments.iter().zip(&self.slots) {
            emit(&mut len, segment);
            emit(&mut len, &resolve(slot)?);
        }
        emit(&mut len, &self.segments[self.slots.len()]);
        Some(len + walk_tail(len, self.target, part))
    }

    /// Compose the page as a zero-copy rope: `resolve` supplies each
    /// slot's cached inner HTML. Returns `None` if any fragment is
    /// missing (the caller regenerates or invalidates instead).
    pub fn compose_parts<F>(&self, resolve: F) -> Option<ComposedPage>
    where
        F: FnMut(FragmentKey) -> Option<Bytes>,
    {
        let mut parts: Vec<Bytes> = Vec::with_capacity(2 * self.slots.len() + 4);
        let len = self.walk(resolve, |b| parts.push(b.clone()))?;
        Some(ComposedPage { parts, len })
    }

    /// Compose the page into one contiguous body, written straight into a
    /// buffer reserved to the page's nominal size, which the returned
    /// `Bytes` takes over.
    pub fn compose<F>(&self, resolve: F) -> Option<Bytes>
    where
        F: FnMut(FragmentKey) -> Option<Bytes>,
    {
        let mut body: Vec<u8> = Vec::with_capacity(self.target);
        self.walk(resolve, |b| body.extend_from_slice(b))?;
        Some(fitted(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::Renderer;
    use nagano_db::{seed_games, GamesConfig, OlympicDb};
    use std::sync::Arc;

    fn renderer() -> Renderer {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        Renderer::new(db)
    }

    fn representative_keys(r: &Renderer) -> Vec<PageKey> {
        let ev = r.db().events()[0].clone();
        vec![
            PageKey::Home(ev.day),
            PageKey::Medals,
            PageKey::Sport(ev.sport),
            PageKey::Event(ev.id),
            PageKey::Country(r.db().countries()[0].id),
            PageKey::Athlete(r.db().athletes()[0].id),
            PageKey::NewsIndex(2),
            PageKey::Welcome,
            PageKey::Fragment(FragmentKey::ResultTable(ev.id)),
            PageKey::Fragment(FragmentKey::MedalTable),
            PageKey::Fragment(FragmentKey::Headlines(ev.day)),
        ]
    }

    #[test]
    fn composition_matches_whole_page_render() {
        let r = renderer();
        for key in representative_keys(&r) {
            let plan = r.plan(key);
            let composed = plan
                .compose(|f| Some(r.render_fragment(f).body))
                .expect("all fragments resolvable");
            let legacy = r.render(key).body;
            assert_eq!(composed, legacy, "{key}: composition diverges");
        }
    }

    #[test]
    fn plan_deps_match_render_deps() {
        let r = renderer();
        for key in representative_keys(&r) {
            let plan = r.plan(key);
            let legacy = r.render(key);
            if matches!(key, PageKey::Fragment(_)) {
                // Fragment-page plans carry no deps of their own: the
                // fragment render registers the (identical) data edges.
                assert!(plan.deps().is_empty(), "{key}");
                assert_eq!(
                    r.render_fragment(match key {
                        PageKey::Fragment(f) => f,
                        _ => unreachable!(),
                    })
                    .deps,
                    legacy.deps,
                    "{key}"
                );
            } else {
                assert_eq!(plan.deps(), legacy.deps, "{key}: dep lists diverge");
            }
        }
    }

    #[test]
    fn composed_parts_concatenate_to_compose() {
        let r = renderer();
        let ev = r.db().events()[0].clone();
        let plan = r.plan(PageKey::Home(ev.day));
        assert!(plan.has_slots());
        let resolve = |f: FragmentKey| Some(r.render_fragment(f).body);
        let rope = plan.compose_parts(resolve).unwrap();
        assert!(rope.parts.iter().all(|p| !p.is_empty()));
        assert_eq!(rope.len(), rope.to_bytes().len());
        assert_eq!(rope.to_bytes(), plan.compose(resolve).unwrap());
    }

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

    #[test]
    fn missing_fragment_aborts_composition() {
        let r = renderer();
        let ev = r.db().events()[0].clone();
        let plan = r.plan(PageKey::Home(ev.day));
        assert!(plan.compose(|_| None).is_none());
    }

    #[test]
    fn slotless_pages_never_call_resolve() {
        let r = renderer();
        let a = r.db().athletes()[0].id;
        for key in [PageKey::Athlete(a), PageKey::Welcome, PageKey::Nagano] {
            let plan = r.plan(key);
            assert!(!plan.has_slots(), "{key}");
            let body = plan
                .compose(|_| panic!("slotless page resolved a fragment"))
                .unwrap();
            assert_eq!(body, r.render(key).body, "{key}");
        }
    }

    #[test]
    fn skeleton_dependency_probe_separates_fragment_edges() {
        let r = renderer();
        let ev = r.db().events()[0].clone();
        let plan = r.plan(PageKey::Home(ev.day));
        // The home skeleton reads today's schedule and each event row
        // (phase labels, the Gold line) but depends on the medal table
        // only through its fragment object.
        assert!(plan.skeleton_depends_on(|d| d == format!("data:today:{}", ev.day)));
        assert!(plan.skeleton_depends_on(|d| d == format!("data:event:{}", ev.id.0)));
        assert!(!plan.skeleton_depends_on(|d| d == "data:medals:standings"));
        assert!(plan
            .deps()
            .iter()
            .any(|d| d.data_key == "page:/fragments/medals"));
    }

    #[test]
    fn cost_split_is_cheaper_than_whole_page() {
        let r = renderer();
        let ev = r.db().events()[0].clone();
        let plan = r.plan(PageKey::Home(ev.day));
        let full = r.render(PageKey::Home(ev.day)).cost_ms;
        assert!(plan.skeleton_cost_ms() < full);
        assert!(plan.compose_cost_ms() < plan.skeleton_cost_ms());
        // Slotless dynamic pages: the skeleton is the whole page.
        let ath = r.plan(PageKey::Athlete(r.db().athletes()[0].id));
        assert_eq!(
            ath.skeleton_cost_ms(),
            r.render(ath.key()).cost_ms,
            "slotless skeleton = full cost"
        );
    }
}
