//! The debug build's check of every response the simulation serves
//! (DESIGN.md §11a): a fresh body, or a stale copy of bounded age, and
//! only where the serve table allows one. Compiled under
//! `debug_assertions`, as the renderer's revalidation oracle is, so the
//! unoptimised test suite checks every run it makes and an optimised
//! build pays nothing. A violation panics, naming the site, the slot and
//! what was served.
//!
//! The oracle keeps its own record of each (site, page) from what it is
//! told, not from the stores it checks:
//!
//! * **Stale.** A copy is served only where [`serve::decide`], then
//!   [`serve::after_render`] for the render the request led, answer
//!   `ServeStale`. It is the body the page's latest invalidation at that
//!   site removed, no fresh body of the page has been written since
//!   (a request that led a fill is answered before its fill counts), and
//!   its age on the minute clock is within the bound.
//! * **Fresh.** Within one life of the cache entry — an invalidation
//!   ends one, and the next write counts versions from 1 again — a
//!   version names one body, and versions never go backwards. A
//!   `CacheShardCrash` ends every life at the site.
//!
//! Not checked: that a converged site's fresh body equals a fresh render
//! of the database (ROADMAP item 21).

use bytes::Bytes;
use rustc_hash::FxHashMap;

use nagano::serve::{self, Decision, Observation, Render};
use nagano_pagegen::{PageKey, PageRegistry};
use nagano_simcore::SimTime;

use crate::sim::Answer;

/// What the oracle knows of one page at one site.
#[derive(Default)]
struct Page {
    /// Lives of the cache entry ended by an invalidation.
    life: u64,
    /// The last fresh body served: its life, version and bytes.
    served: Option<(u64, u64, Bytes)>,
    /// The body the page's latest invalidation removed, and when, until a
    /// fresh body supersedes it.
    removed: Option<(Bytes, SimTime)>,
}

/// Every (site, page)'s record, and the age bound of stale copies.
pub(crate) struct ResponseOracle {
    max_age_secs: f64,
    pages: FxHashMap<(usize, u32), Page>,
}

impl ResponseOracle {
    /// An oracle for stale copies servable up to `max_age_secs`.
    pub(crate) fn new(max_age_secs: f64) -> Self {
        ResponseOracle {
            max_age_secs,
            pages: FxHashMap::default(),
        }
    }

    /// An invalidation at site `s` took `body` out of `slot`'s entry at
    /// `now`: that life of the entry is over.
    pub(crate) fn removed(&mut self, s: usize, slot: u32, body: &Bytes, now: SimTime) {
        let page = self.pages.entry((s, slot)).or_default();
        page.life += 1;
        page.removed = Some((body.clone(), now));
    }

    /// A refresh at site `s` wrote a fresh body of each of `keys`: their
    /// copies are superseded.
    pub(crate) fn refreshed(&mut self, s: usize, registry: &PageRegistry, keys: &[PageKey]) {
        for slot in keys.iter().filter_map(|&key| registry.space().slot(key)) {
            if let Some(page) = self.pages.get_mut(&(s, slot)) {
                page.removed = None;
            }
        }
    }

    /// Site `s`'s cache cold-restarted: every entry and stale copy is gone.
    pub(crate) fn crashed(&mut self, s: usize) {
        self.pages.retain(|&(site, _), _| site != s);
    }

    /// Check the response to a request for `slot` at site `s`, served at
    /// `now` on the minute clock: `observed` is what the table was shown,
    /// `render` the last render it was asked about, and `answer` what the
    /// request got (`None`: a 503).
    pub(crate) fn served(
        &mut self,
        s: usize,
        slot: u32,
        now: SimTime,
        observed: &Observation,
        render: Option<Render>,
        answer: Option<&Answer>,
    ) {
        let expected = match (serve::decide(observed), render) {
            (Decision::Fill, Some(render)) => {
                serve::after_render(render, observed.tombstone, observed.budget_secs)
            }
            (decision, _) => decision,
        };
        let at = || format!("site {s}, slot {slot}, {now}: {observed:?}, {render:?}");
        let page = self.pages.entry((s, slot)).or_default();
        match answer {
            None => assert_eq!(expected, Decision::Fail, "{}: a 503", at()),
            Some(Answer::Stale { copy, .. }) => {
                assert_eq!(expected, Decision::ServeStale, "{}: a stale copy", at());
                let (body, kept) = page.removed.as_ref().unwrap_or_else(|| {
                    panic!("{}: a copy no invalidation left, or one superseded", at())
                });
                assert!(
                    copy.body == *body,
                    "{}: not the body the latest invalidation removed",
                    at()
                );
                let age = now.since(*kept).as_secs_f64();
                assert!(
                    age <= self.max_age_secs,
                    "{}: a copy {age} s old, past the bound of {} s",
                    at(),
                    self.max_age_secs
                );
            }
            Some(Answer::Fresh { body, version, .. }) => {
                assert!(
                    matches!(expected, Decision::Hit | Decision::Join | Decision::Fill),
                    "{}: a fresh body where the table answers {expected:?}",
                    at()
                );
                if let Some((life, last, last_body)) = &page.served {
                    if *life == page.life {
                        assert!(
                            version >= last,
                            "{}: version {version} served after {last}",
                            at()
                        );
                        assert!(
                            version != last || body == last_body,
                            "{}: version {version} names two bodies",
                            at()
                        );
                    }
                }
                page.served = Some((page.life, *version, body.clone()));
            }
        }
        // The request's own fill wrote a fresh body: from the next
        // request on, no copy of an earlier one may be served.
        if let Some(Render::Done { .. }) = render {
            page.removed = None;
        }
    }
}
