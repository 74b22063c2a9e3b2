//! The page renderer.
//!
//! Rendering a page produces three things:
//!
//! 1. the HTML **body** (deterministic, built from live database rows,
//!    padded to a realistic transfer size — the paper's pages averaged
//!    ~10 KB per hit including images, with the Day-N home pages around
//!    55 KB with inline previews);
//! 2. the **dependency list** — the underlying data and embedded fragments
//!    this page's content was derived from. The paper: "An application
//!    program is responsible for communicating data dependencies between
//!    underlying data and objects to the cache." Nothing in this file
//!    writes that list: every row is read through `reads::Reads`, and the
//!    read pushes the edge. The trigger monitor registers the edges in
//!    the ODG after every (re)generation, so the graph tracks the page
//!    space as it evolves;
//! 3. the modelled CPU **cost** (used for accounting).
//!
//! Composed pages (home, sport, event) embed fragments by *reference to
//! the fragment object*, which makes fragments hybrid vertices: data
//! changes propagate data → fragment → page exactly as in Figure 15.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use bytes::Bytes;
use nagano_db::schema::push_decimal;
use nagano_db::{AthleteId, CountryId, DataKey, EventId, EventPhase, NewsId, OlympicDb, SportId};
use nagano_simcore::sync::Mutex;
use nagano_simcore::uncounted::Uncounted;
use rustc_hash::FxHashMap;

use crate::cost::{spin_for, CostModel};
use crate::key::{FragmentKey, PageKey};
use crate::num::push_fixed2;
use crate::plan::{finished, is_page, unknown_content, write_over, Content, Parts};
use crate::reads::{Coverage, Reads, Source};

/// One dependency edge to register with DUP: `data_key → this page`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dependency {
    /// The underlying datum (or hybrid fragment) the page read.
    pub data_key: DataKey,
    /// Importance weight for the edge.
    pub weight: f64,
}

/// The result of rendering one page.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Rendered HTML.
    pub body: Bytes,
    /// Dependencies to register in the ODG. Shared: a page rendered onto
    /// the body it had comes back with the very list it had, as long as it
    /// lists the same edges.
    pub deps: Arc<[Dependency]>,
    /// Modelled CPU cost in milliseconds.
    pub cost_ms: f64,
    /// Whether the page was answered from the revision stamps of what it
    /// read last time, without being composed.
    pub revalidated: bool,
    /// Whether the page was answered by rewriting, in the body it was
    /// handed, the sections it splices whose stamps moved — without being
    /// composed: nothing else it read had moved, and each of those
    /// sections, brought up to its new stamp if its memo was behind, lists
    /// the edges the page had registered from it.
    pub patched: bool,
}

/// A memoised part of a page: one of the registered fragments, or a
/// derived run of a page family's inner HTML that most regenerations of
/// the page leave unchanged. Sections are private to the renderer — no
/// registry entry, no ODG vertex, no URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Section {
    /// A registered fragment's inner HTML and data edges.
    Fragment(FragmentKey),
    /// The athlete links of a country page.
    Roster(CountryId),
    /// An event's block on its day's home page — the linked phase line and
    /// the gold-medal line — with the two edges the page owes to it.
    HomeEvent(EventId),
}

impl Section {
    /// The one source whose stamp moves whenever the section's bytes can:
    /// what its memo entry is valid by, and what a page that splices it
    /// dates the splice by.
    fn source(self) -> Source {
        match self {
            Section::Fragment(FragmentKey::ResultTable(e)) | Section::HomeEvent(e) => {
                Source::Results(e)
            }
            Section::Fragment(FragmentKey::MedalTable) => Source::Medals,
            Section::Fragment(FragmentKey::Headlines(day)) => Source::News(day),
            Section::Roster(_) => Source::Loads,
        }
    }
}

/// One memoised section render: the HTML [`section_html`] produced, and
/// the edges its reads registered, from a snapshot whose stamp for the
/// section's source data was `revision`.
#[derive(Debug, Default)]
struct SectionMemo {
    revision: u64,
    html: String,
    deps: Vec<Dependency>,
    /// How often `deps` was refilled with other edges than it held: a
    /// splice that recorded this count registered this very list.
    edges: u64,
}

/// One section a page spliced at its top level: the stamp of the
/// section's source its HTML was rendered at, where that HTML lies in the
/// page — in the inner HTML while the page is composed, in the finished
/// body once a [`PageMemo`] keeps it — and which of the lists its memo
/// entry held the page registered ([`SectionMemo::edges`]).
///
/// 32 bytes, offsets in `u32`: a list of splices is then allocated in the
/// size classes the dependency list of every compose passes through, and
/// takes a chunk one of those left free. At 40 bytes, the lists the page
/// memos keep raised the peak RSS of a process that regenerates on a
/// thread of its own by a quarter (DESIGN.md §14a, "Memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Splice {
    pub(crate) section: Section,
    pub(crate) revision: u64,
    pub(crate) edges: u64,
    pub(crate) start: u32,
    pub(crate) len: u32,
}

const _: () = assert!(std::mem::size_of::<Splice>() == 32);

impl Splice {
    /// Where the section's HTML lies.
    fn range(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// What [`Renderer::render_onto`] made of a page: what covered the reads
/// behind the body it returned — the page's own reads, and its splices at
/// their offsets in the body — the length of the body's head and inner
/// HTML, and the dependency list and cost it returned with it. The
/// renderer keeps none: its caller keeps the memo beside the body (the
/// cache, in the page's entry) and hands both to the next render of the
/// page onto that body, which answers from the memo and hands it back
/// brought up to what it returns.
#[derive(Debug)]
pub struct PageMemo {
    /// The renderer that made it: a splice names an edge list of that
    /// renderer's section memo ([`Splice::edges`]).
    renderer: u64,
    coverage: Coverage,
    /// Bytes of head and inner HTML in the body.
    content_len: usize,
    deps: Arc<[Dependency]>,
    /// The page's modelled cost, which the model spells the page's URL
    /// out to work out: kept so that neither a kept page nor a composed one
    /// spells and hashes its URL again.
    cost_ms: f64,
}

impl PageMemo {
    /// Bring the memo of a body up to that body as `patched`: the moved
    /// splices at their new stamps and every splice where it now lies.
    fn patched(&mut self, patched: &Patched<'_>) {
        let (mut grown, mut shrunk) = (0, 0);
        let mut moved = patched.moved.iter().peekable();
        for (index, splice) in self.coverage.splices_mut().iter_mut().enumerate() {
            splice.start = splice.start - shrunk + grown;
            if let Some(m) = moved.next_if(|m| m.index == index) {
                let len = m.fresh.len() as u32;
                (grown, shrunk) = (grown + len, shrunk + splice.len);
                (splice.revision, splice.len) = (m.now, len);
            }
        }
        self.content_len = patched.len();
    }
}

/// A finished page's body as it is parked once a regeneration replaced
/// it, to be written over by the next page of its size when nothing else
/// holds it any more.
#[derive(Debug)]
struct Body {
    bytes: Bytes,
    /// Bytes of head and inner HTML in `bytes`: where a page written over
    /// it has to begin writing padding.
    content_len: usize,
}

/// How [`Renderer::render_onto`] answers a page it is handed a body and
/// its memo for.
#[derive(Clone, Copy, PartialEq)]
enum Answer {
    /// Nothing the held body was made from moved: it is the page.
    Unmoved,
    /// Only sections the page splices moved, and each one's memo entry
    /// stands — or was brought — at its new stamp with the edges the page
    /// registered from it: the page is the held body with those sections
    /// rewritten.
    Patch,
    /// Neither: the page is composed.
    Compose,
}

/// A spliced section a patch rewrites.
#[derive(Debug)]
struct Moved {
    /// Its place among the page memo's splices.
    index: usize,
    /// The splice as the page memo recorded it.
    was: Splice,
    /// The stamp of its source now.
    now: u64,
    /// Where its HTML now lies in the patch's scratch.
    fresh: Range<usize>,
}

/// A held page with the sections that moved rewritten: the runs of the
/// held head and inner HTML around them, and each one's HTML now.
struct Patched<'a> {
    /// The held body's head and inner HTML.
    held: &'a [u8],
    /// The moved sections' HTML now, one after the other.
    fresh: &'a [u8],
    moved: &'a [Moved],
}

impl Patched<'_> {
    fn now(&self, moved: &Moved) -> &[u8] {
        &self.fresh[moved.fresh.clone()]
    }

    fn was(&self, moved: &Moved) -> &[u8] {
        &self.held[moved.was.range()]
    }

    /// Whether the patched page is the held one, byte for byte. Its content
    /// length decides when it moved (`plan`); else, while every moved
    /// section keeps its length, each one's bytes do, in place. Sections
    /// that traded lengths leave the page the held body's own bytes at
    /// unchanged offsets outside the span from the first of them to the
    /// last, so that span is compared.
    fn is_held(&self) -> bool {
        if self.len() != self.held.len() {
            return false;
        }
        let kept_lengths = self
            .moved
            .iter()
            .all(|m| m.fresh.len() == m.was.range().len());
        if kept_lengths {
            return self.moved.iter().all(|m| self.now(m) == self.was(m));
        }
        let (Some(first), Some(last)) = (self.moved.first(), self.moved.last()) else {
            return true;
        };
        let mut from = first.was.range().start;
        let mut rest = Some(&self.held[from..last.was.range().end]);
        for m in self.moved {
            let was = m.was.range();
            for part in [&self.held[from..was.start], self.now(m)] {
                rest = rest.and_then(|rest| rest.strip_prefix(part));
            }
            from = was.end;
        }
        rest.is_some_and(<[u8]>::is_empty)
    }
}

impl Parts for Patched<'_> {
    fn len(&self) -> usize {
        let len = |len, m: &Moved| len - m.was.range().len() + m.fresh.len();
        self.moved.iter().fold(self.held.len(), len)
    }

    fn each(&self, mut part: impl FnMut(&[u8])) {
        let mut from = 0;
        for m in self.moved {
            let was = m.was.range();
            part(&self.held[from..was.start]);
            part(self.now(m));
            from = was.end;
        }
        part(&self.held[from..]);
    }
}

/// The buffers a render works in, one set per rendering thread: cleared,
/// never freed, so rendering allocates only while a thread's largest page
/// is still growing one of them.
#[derive(Default)]
struct Scratch {
    /// The page's inner HTML as it is composed, or the moved sections' HTML
    /// a patch copies.
    html: String,
    /// The sections a patch rewrites.
    moved: Vec<Moved>,
    /// A compose's title.
    title: String,
    /// The dependency list a compose's reads register: a list of its own
    /// is allocated only for a memo whose edges changed.
    deps: Vec<Dependency>,
    /// What covered a kept compose's reads, copied into the buffers of the
    /// page's memo.
    coverage: Coverage,
}

impl Scratch {
    /// This thread's buffers, cleared.
    fn take() -> Scratch {
        let mut scratch = SCRATCH.take();
        scratch.html.clear();
        scratch.moved.clear();
        scratch.title.clear();
        scratch.deps.clear();
        scratch.coverage.clear();
        scratch
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            html: String::new(),
            moved: Vec::new(),
            title: String::new(),
            deps: Vec::new(),
            coverage: Coverage::new(),
        })
    };
}

/// Renders pages from a database.
///
/// Every render reads the database through exactly one snapshot, so a
/// body never mixes two committed states. Section HTML is memoised per
/// renderer and spliced while the database's revision stamp for the
/// section's source data — read from that same view — is the one it was
/// rendered at; a section render is a pure function of that data, so a
/// long-lived renderer and a fresh one return the same bytes. A page
/// rendered onto a body with the [`PageMemo`] this renderer returned with
/// it is not composed at all while the stamps of everything it read stand
/// where they stood, nor while only sections it splices moved and each of
/// them still lists the edges it had: that body is patched instead.
#[derive(Debug)]
pub struct Renderer {
    /// Which renderer this is, for the page memos it makes.
    id: u64,
    db: Arc<OlympicDb>,
    cost: CostModel,
    /// When `Some(scale)`, rendering burns `cost_ms * scale` of real CPU
    /// (throughput experiments). `None` (default) renders at full speed.
    cpu_scale: Option<f64>,
    /// Bounded by the section universe (fragments, countries, events).
    /// Only ever locked for a lookup or a store — never across a render,
    /// never before taking a view.
    sections: Mutex<FxHashMap<Section, SectionMemo>>,
    /// At most one replaced body per `target_bytes` value. Locked on its
    /// own: never while `sections` is held.
    parked: Mutex<FxHashMap<usize, Body>>,
}

/// Renderers made so far: each one's id.
static RENDERERS: AtomicU64 = AtomicU64::new(0);

impl Renderer {
    /// New renderer over `db` with the default cost model.
    pub fn new(db: Arc<OlympicDb>) -> Self {
        Renderer {
            id: RENDERERS.fetch_add(1, Relaxed),
            db,
            cost: CostModel::new(),
            cpu_scale: None,
            sections: Mutex::default(),
            parked: Mutex::default(),
        }
    }

    /// Burn real CPU proportional to the modelled cost (scale 1.0 =
    /// model-accurate; tests use small scales).
    pub fn with_simulated_cpu(mut self, scale: f64) -> Self {
        self.cpu_scale = Some(scale);
        self
    }

    /// The database handle.
    pub fn db(&self) -> &Arc<OlympicDb> {
        &self.db
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Render `key`, making no [`PageMemo`] of it: what a caller that
    /// hands the body to one holder, or to none, asks.
    pub fn render(&self, key: PageKey) -> RenderOutput {
        self.render_with(key, None, None, false).0
    }

    /// Render `key` for a caller that holds `held`: the body the page had
    /// so far, if any, with the memo a renderer returned with it, if it
    /// kept that. Returns the page and the memo of its body, to keep beside
    /// it and hand to the next render onto it. The body returned *is* the
    /// held one — the same allocation, and no new one is finished — if and
    /// only if the page comes out as the held bytes: a caller learns
    /// whether the page changed from the address alone. Whatever is held,
    /// the body, dependencies and cost are byte for byte those of
    /// [`Renderer::render`].
    ///
    /// With a memo, the revision stamps logged by the reads behind the held
    /// body are read in this render's snapshot first. If they all read what
    /// they read then, the page is the held body: a compose would make the
    /// same reads and get the same rows. If only stamps of sections the
    /// page splices moved, the page is the held body with those sections
    /// rewritten — each rendered under this snapshot if its memo entry is
    /// behind — as long as each lists the edges the page registered from
    /// it; the memo is refilled in place. Otherwise — or with no memo, or
    /// another renderer's, whose splices name that one's section lists —
    /// the page is composed. Whether a patched or composed page is the held
    /// body is decided once: by its content length where the memo kept the
    /// held one's (`plan`), else by comparing it with the held body in place
    /// before it is finished. A page that changed is written over the body
    /// parked for its size when nothing holds that any more, else into a
    /// buffer of its own; the held body is parked in its turn.
    pub fn render_onto(
        &self,
        key: PageKey,
        held: Option<(&Bytes, Option<Box<PageMemo>>)>,
    ) -> (RenderOutput, Box<PageMemo>) {
        let (previous, memo) = held.map_or((None, None), |(body, memo)| (Some(body), memo));
        let (out, memo) = self.render_with(key, previous, memo, true);
        (
            out,
            memo.expect("a render that keeps its coverage makes a memo"),
        )
    }

    /// The one render: onto `previous`, answered from `memo` if it is this
    /// renderer's, with a memo of the body returned if `keep`.
    fn render_with(
        &self,
        key: PageKey,
        previous: Option<&Bytes>,
        memo: Option<Box<PageMemo>>,
        keep: bool,
    ) -> (RenderOutput, Option<Box<PageMemo>>) {
        let mut scratch = Scratch::take();
        let Scratch {
            html,
            moved,
            title,
            deps,
            coverage,
        } = &mut scratch;
        // What covers the reads is of use to the next render onto the body
        // this one returns, if it is to be kept.
        let mut coverage = keep.then_some(coverage);
        let last = memo.as_deref().filter(|m| m.renderer == self.id);
        let (answer, oracle) = Reads::over(&self.db, deps, coverage.as_deref_mut(), |r| {
            let answer = match last.filter(|_| previous.is_some()) {
                Some(last) => self.answer(r, last, html, moved),
                None => Answer::Compose,
            };
            if answer == Answer::Compose {
                html.clear();
                self.compose(r, key, html, title);
            }
            // A page that is not composed is composed all the same in a
            // build with debug assertions, to compare.
            let oracle =
                (COMPOSE_WHAT_IS_KEPT && answer != Answer::Compose).then(|| self.composed(r, key));
            (answer, oracle)
        });
        debug_assert!(
            answer == Answer::Compose || deps.is_empty(),
            "{key}: answered uncomposed, but read into the render's list"
        );
        let target = target_bytes(key);
        let (revalidated, patched) = (answer == Answer::Unmoved, answer == Answer::Patch);
        let held_len = memo.as_ref().map(|memo| memo.content_len);
        let (body, memo) = match (answer, previous, memo) {
            (Answer::Unmoved, Some(held), memo) => (held.clone(), memo),
            (Answer::Patch, Some(held), Some(mut memo)) => {
                let patched = Patched {
                    held: &held[..memo.content_len],
                    fresh: html.as_bytes(),
                    moved,
                };
                // The held body itself exactly when the patch rebuilt its
                // bytes.
                let body = if patched.is_held() {
                    held.clone()
                } else {
                    self.finish(&patched, target)
                };
                memo.patched(&patched);
                (body, Some(memo))
            }
            (_, previous, memo) => {
                let content = Content::new(title, html);
                // A content length other than the held body's is a page
                // that changed (`plan`): its bytes need no reading.
                let held = previous.filter(|held| {
                    held_len.is_none_or(|len| len == content.len())
                        && is_page(held, &content, target)
                });
                let body = match held {
                    Some(held) => held.clone(),
                    None => self.finish(&content, target),
                };
                let memo = coverage.map(|coverage| {
                    coverage.offset(content.len() - html.len());
                    self.remember(key, content.len(), deps, coverage, memo)
                });
                (body, memo)
            }
        };
        // The held body this one replaces is parked, with the content length
        // its memo kept — or, one that came with none (a demand fill's, a
        // restored one), what it held unknown.
        if let Some(held) = previous.filter(|held| held.as_ptr() != body.as_ptr()) {
            if let Some(content_len) = held_len.or_else(|| unknown_content(held)) {
                let bytes = held.clone();
                self.park(target, Body { bytes, content_len });
            }
        }
        let (deps_out, cost_ms) = match &memo {
            Some(memo) => (Arc::clone(&memo.deps), memo.cost_ms),
            None => (Arc::from(&deps[..]), self.cost.cost_ms(key)),
        };
        debug_assert_eq!(cost_ms, self.cost.cost_ms(key), "{key}");
        let out = RenderOutput {
            body,
            deps: deps_out,
            cost_ms,
            revalidated,
            patched,
        };
        check(key, previous, &out, oracle);
        SCRATCH.set(scratch);
        if let Some(scale) = self.cpu_scale {
            spin_for(out.cost_ms, scale);
        }
        (out, memo)
    }

    /// How a render onto the body `last` is the memo of is answered in
    /// `r`'s snapshot. A patch leaves the moved sections' HTML in `fresh`
    /// and says in `moved` where it goes. A moved section memoised behind
    /// its stamp is rendered here, under the same snapshot, and memoised at
    /// its new stamp; one that then lists other edges than the page
    /// registered from it makes the page composed.
    fn answer(
        &self,
        r: &Reads<'_>,
        last: &PageMemo,
        fresh: &mut String,
        moved: &mut Vec<Moved>,
    ) -> Answer {
        let Some(now) = moved_splices(r, last) else {
            return Answer::Compose;
        };
        moved.extend(now);
        if moved.is_empty() {
            return Answer::Unmoved;
        }
        for m in moved.iter_mut() {
            let (section, start) = (m.was.section, fresh.len());
            let hit = {
                let sections = self.sections.checked_lock().expect(MEMO_POISONED);
                let current = sections.get(&section).filter(|memo| memo.revision == m.now);
                current.map(|memo| {
                    fresh.push_str(&memo.html);
                    memo.edges
                })
            };
            // The page's list is the one it had: nothing is registered.
            let edges = match hit {
                Some(edges) => edges,
                None => self.render_section(&mut r.unregistered(), section, m.now, fresh),
            };
            if edges != m.was.edges {
                return Answer::Compose;
            }
            m.fresh = start..fresh.len();
        }
        Answer::Patch
    }

    /// The body of a page that changed: written over the body parked for
    /// its size when nothing else holds that, else allocated afresh.
    fn finish(&self, content: &impl Parts, target: usize) -> Bytes {
        let parked = self
            .parked
            .checked_lock()
            .expect(MEMO_POISONED)
            .remove(&target);
        if let Some(Body { bytes, content_len }) = parked {
            // No cache entry, held body, stale copy or response in flight
            // can see the bytes change: none of them holds the buffer.
            if let Ok(mut page) = bytes.try_into_mut() {
                if write_over(&mut page, content_len, content) {
                    let body = page.freeze();
                    if COMPOSE_WHAT_IS_KEPT {
                        let _checking = Uncounted::enter();
                        let afresh = finished(content, target);
                        assert!(
                            body == afresh,
                            "written over a parked body, but not as afresh"
                        );
                    }
                    return body;
                }
                let bytes = page.freeze();
                self.park(target, Body { bytes, content_len });
            }
        }
        Bytes::from(finished(content, target))
    }

    /// Keep `body`, a page of a family targeting `target` bytes, for
    /// [`Renderer::finish`] — in place of whatever was parked for that
    /// size. A page that outgrew its target is no page of that size to
    /// write over.
    fn park(&self, target: usize, body: Body) {
        if body.bytes.len() == target {
            // What was parked before is let go of after the lock is.
            let _replaced = self
                .parked
                .checked_lock()
                .expect(MEMO_POISONED)
                .insert(target, body);
        }
    }

    /// The memo of a compose of `key`, from what covered its reads and the
    /// dependency list they came to: `memo`, when one was handed in,
    /// refilled — nothing of a page's is allocated anew per revision but a
    /// list that changed — else a new one, whose cost is worked out then.
    fn remember(
        &self,
        key: PageKey,
        content_len: usize,
        deps: &[Dependency],
        coverage: &mut Coverage,
        memo: Option<Box<PageMemo>>,
    ) -> Box<PageMemo> {
        let Some(mut memo) = memo else {
            return Box::new(PageMemo {
                renderer: self.id,
                coverage: std::mem::take(coverage),
                content_len,
                deps: deps.into(),
                cost_ms: self.cost.cost_ms(key),
            });
        };
        if memo.renderer != self.id {
            (memo.renderer, memo.cost_ms) = (self.id, self.cost.cost_ms(key));
        }
        memo.coverage.refill(coverage);
        memo.content_len = content_len;
        if memo.deps[..] != *deps {
            memo.deps = deps.into();
        }
        memo
    }

    /// Answer, in one pass over one snapshot, every page of `keys` whose
    /// revision stamps all stand where they stood when this renderer made
    /// the memo handed over for it — the rule [`Renderer::render_onto`]
    /// answers a page [`RenderOutput::revalidated`] by: such a page is the
    /// body the memo is of, at the cost the memo kept. `visit(key, answer)`
    /// is called once per key, in `keys`' order, inside the snapshot: it
    /// hands `answer` the body every holder holds for the page and the
    /// memo kept of it, if there are such, and makes what it will of the
    /// answer. Returns what each visit made.
    pub fn answer_unmoved<V>(
        &self,
        keys: &[PageKey],
        mut visit: impl FnMut(PageKey, &mut dyn FnMut(&Bytes, &PageMemo) -> Option<f64>) -> V,
    ) -> Vec<V> {
        // The cost of each page answered, to spin for once the snapshot is
        // let go of.
        let mut answered = Vec::new();
        let visits = Reads::over(&self.db, &mut Vec::new(), None, |r| {
            // What a build with debug assertions composes to compare.
            let mut kept = Vec::new();
            let visits = keys.iter().map(|&key| {
                visit(key, &mut |body, last| {
                    if last.renderer != self.id {
                        return None;
                    }
                    let mut moved = moved_splices(r, last)?;
                    if moved.next().is_some() {
                        return None;
                    }
                    if COMPOSE_WHAT_IS_KEPT {
                        let _checking = Uncounted::enter();
                        let deps = Arc::clone(&last.deps);
                        kept.push((key, body.clone(), deps, last.cost_ms));
                    }
                    if self.cpu_scale.is_some() {
                        answered.push(last.cost_ms);
                    }
                    Some(last.cost_ms)
                })
            });
            let visits = visits.collect();
            for (key, body, deps, cost_ms) in kept {
                let (composed, own) = self.composed(r, key);
                assert!(composed == *body, "{key}: unmoved, but not as composed");
                assert_eq!(own[..], deps[..], "{key}: unmoved");
                assert_eq!(cost_ms, self.cost.cost_ms(key), "{key}: unmoved");
            }
            visits
        });
        if let Some(scale) = self.cpu_scale {
            for cost_ms in answered {
                spin_for(cost_ms, scale);
            }
        }
        visits
    }

    /// The oracle of a page answered without a compose: `key` composed in
    /// `r`'s snapshot through a handle of its own — the render's
    /// dependency list and coverage stay as an optimised build leaves
    /// them — finished, with the dependency list its reads registered, to
    /// compare with the answer. The oracle's work: uncounted.
    fn composed(&self, r: &Reads<'_>, key: PageKey) -> (Vec<u8>, Vec<Dependency>) {
        let _checking = Uncounted::enter();
        let (mut html, mut title, mut deps) = (String::new(), String::new(), Vec::new());
        self.compose(&mut r.section(&mut deps, None), key, &mut html, &mut title);
        let body = finished(&Content::new(&title, &html), target_bytes(key));
        (body, deps)
    }

    /// Build the page's inner HTML in `html` and its title in `title`.
    ///
    /// `r` is the render's one read snapshot, and the page's dependency
    /// list with it. Nothing below may reach for `self.db`: a second read
    /// lock on this thread deadlocks behind a waiting commit.
    fn compose(&self, r: &mut Reads<'_>, key: PageKey, html: &mut String, title: &mut String) {
        match key {
            PageKey::Home(day) => {
                self.home(r, day, html);
                title.push_str("Nagano 1998 — Day ");
                push_decimal(title, day);
            }
            PageKey::Medals => {
                html.push_str("<h2>Medal Standings</h2>\n");
                self.inline_fragment(r, FragmentKey::MedalTable, 1.0, html);
                title.push_str("Medal Standings");
            }
            PageKey::Sport(s) => self.sport(r, s, html, title),
            PageKey::Event(e) => self.event(r, e, html, title),
            PageKey::Country(c) => self.country(r, c, html, title),
            PageKey::Athlete(a) => athlete(r, a, html, title),
            PageKey::News(n) => story(r, n, html, title),
            PageKey::NewsIndex(day) => {
                news_index(r, day, html);
                title.push_str("News for Day ");
                push_decimal(title, day);
            }
            PageKey::Venue(s) => {
                let venue = r.sport(s).map_or("", |x| x.venue.as_str());
                html.push_str("<h2>");
                html.push_str(venue);
                html.push_str("</h2><p>Venue guide and transport.</p>\n");
                title.push_str(venue);
            }
            PageKey::Welcome => {
                html.push_str("<h2>Welcome</h2><p>How to use this site.</p>\n");
                title.push_str("Welcome");
            }
            PageKey::Nagano => {
                html.push_str("<h2>Nagano, Japan</h2><p>Host city guide.</p>\n");
                title.push_str("Nagano");
            }
            PageKey::Fun => {
                html.push_str("<h2>Fun &amp; Games</h2><p>Activities for children.</p>\n");
                title.push_str("Fun");
            }
            PageKey::Fragment(f) => {
                self.compose_fragment(r, Section::Fragment(f), html);
                push_fragment_title(title, f);
            }
        }
    }

    /// The home page of `day`: the medal table, the day's headlines, and
    /// per event concluding that day its result table and its block.
    fn home(&self, r: &mut Reads<'_>, day: u32, html: &mut String) {
        let events = r.events_on_day(day, 2.0);
        html.push_str("<h2>Day ");
        push_decimal(html, day);
        html.push_str(" at the Games</h2>\n");
        // Embedded fragments: medal table, headlines, and the result
        // tables of every event concluding today.
        self.inline_fragment(r, FragmentKey::MedalTable, 1.0, html);
        self.inline_fragment(r, FragmentKey::Headlines(day), 0.5, html);
        for event in events {
            self.inline_fragment(r, FragmentKey::ResultTable(event.id), 2.0, html);
            // Everything the page itself says about the event: unchanged
            // until results arrive for this very event.
            self.compose_fragment(r, Section::HomeEvent(event.id), html);
        }
    }

    /// A sport's page: per event its result table and a line linking it.
    fn sport(&self, r: &mut Reads<'_>, s: SportId, html: &mut String, title: &mut String) {
        let events = r.events_of_sport(s);
        let name = r.sport(s).map_or("Unknown sport", |x| x.name.as_str());
        push_heading(html, name);
        for event in events {
            self.inline_fragment(r, FragmentKey::ResultTable(event.id), 1.0, html);
            html.push_str("<div>");
            push_link(html, PageKey::Event(event.id), event.name);
            html.push_str(" (day ");
            push_decimal(html, event.day);
            html.push_str(")</div>\n");
        }
        title.push_str(name);
    }

    /// An event's page: its result table, its photos, and cross-links.
    fn event(&self, r: &mut Reads<'_>, e: EventId, html: &mut String, title: &mut String) {
        self.inline_fragment(r, FragmentKey::ResultTable(e), 1.0, html);
        let event = r.event(e);
        let name = event.map_or("Unknown event", |x| x.name);
        push_heading(html, name);
        for photo in r.photos_for_event(e, 0.5) {
            html.push_str("<img alt=\"photo ");
            push_decimal(html, photo.id.0);
            html.push_str("\"/>\n");
        }
        // Cross-links per the 1998 redesign: every page links to pertinent
        // information in other sections.
        if let Some(ev) = event {
            html.push_str("<nav><a href=\"");
            PageKey::Sport(ev.sport).push_url(html);
            // The sport by its `Display` form.
            html.push_str("\">All sport");
            push_decimal(html, ev.sport.0);
            html.push_str(" results</a> <a href=\"/medals\">Medals</a></nav>\n");
        }
        title.push_str(name);
    }

    /// A country's page: its medal box and its roster.
    fn country(&self, r: &mut Reads<'_>, c: CountryId, html: &mut String, title: &mut String) {
        let medals = r.medals_of(c);
        let name = r.country(c).map_or("Unknown", |x| x.name.as_str());
        push_heading(html, name);
        if let Some(m) = medals {
            html.push_str("<p class=\"medal-box\">Gold ");
            push_decimal(html, m.gold);
            html.push_str(" · Silver ");
            push_decimal(html, m.silver);
            html.push_str(" · Bronze ");
            push_decimal(html, m.bronze);
            html.push_str("</p>\n");
        }
        // The roster is what a medal change regenerating every country
        // page leaves alone.
        self.compose_fragment(r, Section::Roster(c), html);
        title.push_str(name);
    }

    /// Splice fragment `f` into a composed page, which then depends on the
    /// fragment *object* at `weight` and not on the data the fragment
    /// reads: the fragment depends on that (Figure 15's two-level
    /// composition).
    fn inline_fragment(&self, r: &mut Reads<'_>, f: FragmentKey, weight: f64, html: &mut String) {
        self.compose_fragment(
            &mut r.inline_fragment(f, weight),
            Section::Fragment(f),
            html,
        );
    }

    /// Append `section`'s HTML to `html`, register its edges with `r` and
    /// log the splice. The one entry to memoised rendering in a compose: it
    /// splices the memoised render while `r` still stamps the section's
    /// source data with the revision the memo was rendered at, and
    /// otherwise has [`Renderer::render_section`] render and memoise it.
    fn compose_fragment(&self, r: &mut Reads<'_>, section: Section, html: &mut String) {
        let revision = r.stamp(section.source());
        let start = html.len();
        let hit = {
            let memo = self.sections.checked_lock().expect(MEMO_POISONED);
            memo.get(&section)
                .filter(|m| m.revision == revision)
                .map(|hit| {
                    html.push_str(&hit.html);
                    r.register(&hit.deps);
                    hit.edges
                })
        };
        let edges = match hit {
            Some(edges) => edges,
            None => self.render_section(r, section, revision, html),
        };
        // A page is far short of 4 GiB.
        let (start, len) = (start as u32, (html.len() - start) as u32);
        r.spliced(Splice {
            section,
            revision,
            edges,
            start,
            len,
        });
    }

    /// Append `section`'s HTML to `html` — [`section_html`], reading
    /// through a handle that registers in a list of the section's own —
    /// register that list with `r`, and memoise both at `revision`: the one
    /// store into the section memo, whether a compose or a patch found the
    /// entry behind. Returns the entry's edge count.
    fn render_section(
        &self,
        r: &mut Reads<'_>,
        section: Section,
        revision: u64,
        html: &mut String,
    ) -> u64 {
        let source = section.source();
        let start = html.len();
        let mut own: Vec<Dependency> = Vec::new();
        // The check's own record, made uncounted with room for every
        // source a section may read under: logging its reads allocates
        // nothing, so a counted section render allocates alike in both
        // builds.
        let mut within = cfg!(debug_assertions).then(|| {
            let _checking = Uncounted::enter();
            Coverage::for_section()
        });
        section_html(&mut r.section(&mut own, within.as_mut()), section, html);
        debug_assert!(
            within.as_ref().is_some_and(|w| w.is_within(source)),
            "{section:?} is memoised under {source:?}, but read under {within:?}"
        );
        r.register(&own);
        // A re-render refills the entry's buffers rather than replacing
        // them: the memo's allocations are made once, when a section is
        // first rendered, not once per revision.
        let mut memo = self.sections.checked_lock().expect(MEMO_POISONED);
        let entry = memo.entry(section).or_default();
        entry.revision = revision;
        entry.html.clear();
        entry.html.push_str(&html[start..]);
        if entry.deps != own {
            entry.deps.clear();
            entry.deps.append(&mut own);
            entry.edges += 1;
        }
        entry.edges
    }
}

/// The debug oracle's checks of `out`, rendered onto `previous`: the body
/// is the held allocation if and only if it is the held bytes, and a page
/// not composed is `composed`, the page composed all the same.
fn check(
    key: PageKey,
    previous: Option<&Bytes>,
    out: &RenderOutput,
    composed: Option<(Vec<u8>, Vec<Dependency>)>,
) {
    if let Some(held) = previous.filter(|_| COMPOSE_WHAT_IS_KEPT) {
        let _checking = Uncounted::enter();
        let (is_held, as_held) = (out.body.as_ptr() == held.as_ptr(), out.body == *held);
        assert_eq!(is_held, as_held, "{key}: held body returned iff its bytes");
    }
    if let Some((composed, composed_deps)) = composed {
        let how = if out.patched {
            "patched"
        } else {
            "kept by its stamps"
        };
        assert!(composed == *out.body, "{key}: {how}, but not as composed");
        assert_eq!(composed_deps[..], out.deps[..], "{key}: {how}");
    }
}

/// An athlete's page: every result, and a link to the team page.
fn athlete(r: &mut Reads<'_>, a: AthleteId, html: &mut String, title: &mut String) {
    let results = r.results_for_athlete(a);
    let athlete = r.athlete(a);
    let name = athlete.map_or("Unknown", |x| x.name.as_str());
    push_heading(html, name);
    for row in results {
        html.push_str("<div>Event <a href=\"");
        PageKey::Event(row.event).push_url(html);
        html.push_str("\">");
        push_decimal(html, row.event.0);
        html.push_str("</a>: rank ");
        push_decimal(html, row.rank);
        html.push_str(" (");
        push_fixed2(html, row.score);
        html.push_str(")</div>\n");
    }
    if let Some(at) = athlete {
        push_nav(html, PageKey::Country(at.country), "Team page");
    }
    title.push_str(name);
}

/// A story's page.
fn story(r: &mut Reads<'_>, n: NewsId, html: &mut String, title: &mut String) {
    let Some(article) = r.news(n) else {
        title.push_str("Story not found");
        return;
    };
    html.push_str("<h2>");
    html.push_str(&article.title);
    html.push_str("</h2><article>");
    html.push_str(&article.body);
    html.push_str("</article>\n");
    if let Some(ev) = article.about_event {
        push_nav(html, PageKey::Event(ev), "Event results");
    }
    title.push_str(&article.title);
}

/// The news index of `day`: a link per story.
fn news_index(r: &mut Reads<'_>, day: u32, html: &mut String) {
    html.push_str("<h2>News — Day ");
    push_decimal(html, day);
    html.push_str("</h2>\n");
    for article in r.news_on_day(day, 1.0, 0.5) {
        html.push_str("<div>");
        push_link(html, PageKey::News(article.id), &article.title);
        html.push_str("</div>\n");
    }
}

/// The one rule by which a page `last` is the memo of is answered without
/// being composed, in `r`'s snapshot: `None` when a read of its own moved,
/// else the splices whose sections' stamps moved, each with its stamp now
/// — none: the page is the body `last` is of.
fn moved_splices<'m>(
    r: &'m Reads<'m>,
    last: &'m PageMemo,
) -> Option<impl Iterator<Item = Moved> + 'm> {
    if !r.finds_unmoved(&last.coverage) {
        return None;
    }
    let splices = last.coverage.splices().iter().enumerate();
    Some(splices.filter_map(|(index, &was)| {
        let now = r.stamp(was.section.source());
        (now != was.revision).then_some(Moved {
            index,
            was,
            now,
            fresh: 0..0,
        })
    }))
}

/// An entry is refilled under the lock, so a panic in there leaves it
/// half-written; the poisoned mutex then stops every later render instead
/// of letting one splice it.
const MEMO_POISONED: &str = "a render panicked while holding a memo";

/// A build with debug assertions — the one every test suite runs — also
/// composes each page it keeps by its stamps or patches, under the same
/// view, and panics unless that comes to the bytes, the dependency list and
/// the cost it answered with — a page patched back to the held body
/// included; and finishes each page it writes over a parked body afresh,
/// and panics unless the two agree. That work runs [`Uncounted`], so an
/// allocation count holds of both builds; an optimised build compiles none
/// of it.
const COMPOSE_WHAT_IS_KEPT: bool = cfg!(debug_assertions);

/// Render `section` from `r`: the pure function of the section's source
/// data the memo caches, and the one section renderer — a compose and a
/// patch that finds the memo behind both render through it.
fn section_html(r: &mut Reads<'_>, section: Section, html: &mut String) {
    match section {
        Section::Fragment(FragmentKey::ResultTable(e)) => {
            html.push_str("<table class=\"results\">\n");
            for row in r.results_for_event(e) {
                html.push_str("<tr><td>");
                push_decimal(html, row.rank);
                html.push_str("</td><td>");
                match r.athlete(row.athlete) {
                    Some(a) => html.push_str(&a.name),
                    None => {
                        html.push_str("athlete ");
                        push_decimal(html, row.athlete.0);
                    }
                }
                html.push_str("</td><td>");
                push_fixed2(html, row.score);
                html.push_str("</td></tr>\n");
            }
            html.push_str("</table>\n");
        }
        Section::Fragment(FragmentKey::MedalTable) => {
            html.push_str("<table class=\"medals\">\n");
            for (c, m) in r.medal_standings().iter().take(15) {
                html.push_str("<tr><td>");
                match r.country(*c) {
                    Some(country) => html.push_str(&country.code),
                    None => {
                        // The country by its `Display` form.
                        html.push_str("country");
                        push_decimal(html, c.0);
                    }
                }
                for n in [m.gold, m.silver, m.bronze] {
                    html.push_str("</td><td>");
                    push_decimal(html, n);
                }
                html.push_str("</td></tr>\n");
            }
            html.push_str("</table>\n");
        }
        Section::Fragment(FragmentKey::Headlines(day)) => {
            html.push_str("<ul class=\"headlines\">\n");
            for article in r.news_on_day(day, 0.5, 1.0).take(8) {
                html.push_str("<li>");
                html.push_str(&article.title);
                html.push_str("</li>\n");
            }
            html.push_str("</ul>\n");
        }
        Section::Roster(c) => {
            for a in r.athletes_of_country(c).take(50) {
                html.push_str("<div>");
                push_link(html, PageKey::Athlete(a.id), &a.name);
                html.push_str("</div>\n");
            }
        }
        // The page reads the event's rows itself here (phase label,
        // gold-winner line), so it gets a data edge of its own — not just
        // the result table's.
        Section::HomeEvent(e) => {
            let Some(event) = r.event(e) else {
                return;
            };
            html.push_str("<section class=\"event\">");
            push_link(html, PageKey::Event(e), event.name);
            html.push_str(" — ");
            let phase = r.phase(&event);
            html.push_str(phase_label(phase));
            html.push_str("</section>\n");
            // Inline the top line of finished finals: this is what lets
            // >25% of visitors stop at the home page.
            if phase == EventPhase::Final {
                let winner = r
                    .results_for_event(e)
                    .find(|row| row.is_final && row.rank == 1);
                if let Some(a) = winner.and_then(|w| r.athlete(w.athlete)) {
                    html.push_str("<p>Gold: ");
                    html.push_str(&a.name);
                    html.push_str("</p>\n");
                }
            }
        }
    }
}

/// Append the fragment page's title to `title`.
fn push_fragment_title(title: &mut String, f: FragmentKey) {
    let (text, n) = match f {
        FragmentKey::ResultTable(e) => ("Results ", Some(e.0)),
        FragmentKey::MedalTable => ("Medal Table", None),
        FragmentKey::Headlines(day) => ("Headlines Day ", Some(day)),
    };
    title.push_str(text);
    if let Some(n) = n {
        push_decimal(title, n);
    }
}

/// `<h2>{name}</h2>` on a line of its own.
fn push_heading(html: &mut String, name: &str) {
    html.push_str("<h2>");
    html.push_str(name);
    html.push_str("</h2>\n");
}

/// A one-link `<nav>` on a line of its own.
fn push_nav(html: &mut String, key: PageKey, text: &str) {
    html.push_str("<nav>");
    push_link(html, key, text);
    html.push_str("</nav>\n");
}

/// `<a href="{key's URL}">{text}</a>`.
fn push_link(html: &mut String, key: PageKey, text: &str) {
    html.push_str("<a href=\"");
    key.push_url(html);
    html.push_str("\">");
    html.push_str(text);
    html.push_str("</a>");
}

fn phase_label(p: EventPhase) -> &'static str {
    match p {
        EventPhase::Scheduled => "scheduled",
        EventPhase::InProgress => "in progress",
        EventPhase::Final => "final",
    }
}

/// Nominal transfer size per page family — a body is exactly this long
/// unless its content alone is longer, so the link model sees realistic
/// byte counts (home pages carried ~55 KB of markup + inline previews; the
/// site-wide mean request was ~10 KB).
pub fn target_bytes(key: PageKey) -> usize {
    match key {
        PageKey::Home(_) => 55_000,
        PageKey::Sport(_) => 15_000,
        PageKey::Event(_) => 12_000,
        PageKey::Country(_) => 10_000,
        PageKey::Medals => 10_000,
        PageKey::Athlete(_) => 8_000,
        PageKey::NewsIndex(_) => 8_000,
        PageKey::News(_) => 6_000,
        PageKey::Welcome | PageKey::Nagano | PageKey::Fun | PageKey::Venue(_) => 5_000,
        PageKey::Fragment(FragmentKey::ResultTable(_)) => 3_000,
        PageKey::Fragment(FragmentKey::MedalTable) => 3_000,
        PageKey::Fragment(FragmentKey::Headlines(_)) => 2_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_db::{seed_games, AthleteId, CountryId, GamesConfig, NewsArticle, NewsId};
    use nagano_simcore::sync::blocking;

    fn seeded() -> (Arc<OlympicDb>, nagano_db::EventId) {
        let db = Arc::new(OlympicDb::new());
        let (fs, _) = seed_games(&db, &GamesConfig::small());
        (db, fs)
    }

    #[test]
    fn the_oracle_of_a_kept_page_reads_into_a_list_of_its_own() {
        let (db, _) = seeded();
        let r = Renderer::new(Arc::clone(&db));
        let key = PageKey::Home(1);
        let (first, memo) = r.render_onto(key, None);
        let (kept, _) = r.render_onto(key, Some((&first.body, Some(memo))));
        assert!(kept.revalidated, "answered from its stamps");
        // What a render answered from its stamps composes, in a build with
        // debug assertions, to compare: the page, without a read into the
        // render's own list or coverage, which stay as an optimised build
        // leaves them.
        let (mut deps, mut coverage) = (Vec::new(), Coverage::default());
        let (composed, own) = Reads::over(&db, &mut deps, Some(&mut coverage), |reads| {
            r.composed(reads, key)
        });
        assert!(composed == *kept.body);
        assert_eq!(own[..], kept.deps[..]);
        assert!(deps.is_empty() && coverage.splices().is_empty());
    }

    #[test]
    fn result_fragment_depends_on_event_data() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let ev = nagano_db::EventId(1);
        let out = r.render(PageKey::Fragment(FragmentKey::ResultTable(ev)));
        assert!(out
            .deps
            .iter()
            .any(|d| d.data_key == "data:event:1" && d.weight == 1.0));
        assert!(out.cost_ms > 10.0);
    }

    #[test]
    fn home_page_embeds_fragments_for_the_day() {
        let (db, fs) = seeded();
        let day = db.event(fs).unwrap().day;
        let r = Renderer::new(db);
        let out = r.render(PageKey::Home(day));
        let keys: Vec<&str> = out.deps.iter().map(|d| d.data_key.as_str()).collect();
        assert!(keys.contains(&format!("data:today:{day}").as_str()));
        assert!(keys.contains(&"page:/fragments/medals"));
        assert!(keys
            .iter()
            .any(|k| k.starts_with("page:/fragments/results/")));
        // Home page is padded to its nominal ~55 KB size.
        assert!(out.body.len() >= 50_000, "body {} bytes", out.body.len());
    }

    #[test]
    fn final_results_appear_on_home_page() {
        let (db, _) = seeded();
        let ev = db.events().into_iter().next().unwrap();
        let athletes = db.athletes_of_sport(ev.sport);
        let podium: Vec<(AthleteId, f64)> = athletes
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, a)| (a.id, 100.0 - i as f64))
            .collect();
        db.record_results(ev.id, &podium, true, ev.day);
        let winner = db.athlete(podium[0].0).unwrap().name;
        let r = Renderer::new(db);
        let out = r.render(PageKey::Home(ev.day));
        let html = String::from_utf8(out.body.to_vec()).unwrap();
        assert!(html.contains(&format!("Gold: {winner}")), "missing winner");
    }

    #[test]
    fn country_page_softly_depends_on_medals() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let out = r.render(PageKey::Country(CountryId(1)));
        let medal_dep = out
            .deps
            .iter()
            .find(|d| d.data_key == "data:medals:standings")
            .expect("medal dependency");
        assert!(medal_dep.weight < 1.0, "soft weight expected");
        assert!(out.deps.iter().any(|d| d.data_key == "data:country:1"));
    }

    #[test]
    fn static_pages_have_no_deps_and_low_cost() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        for key in [PageKey::Welcome, PageKey::Nagano, PageKey::Fun] {
            let out = r.render(key);
            assert!(out.deps.is_empty(), "{key} should be static");
            assert!(out.cost_ms < 10.0);
        }
    }

    #[test]
    fn news_pages_depend_on_their_article() {
        let (db, _) = seeded();
        db.publish_news(NewsArticle {
            id: NewsId(1),
            day: 2,
            title: "Opening day".into(),
            body: "The Games begin.".into(),
            about_event: None,
        });
        let r = Renderer::new(db);
        let out = r.render(PageKey::News(NewsId(1)));
        assert!(out.deps.iter().any(|d| d.data_key == "data:news:1"));
        let html = String::from_utf8(out.body.to_vec()).unwrap();
        assert!(html.contains("Opening day"));
        // Index page softly depends on each article.
        let idx = r.render(PageKey::NewsIndex(2));
        assert!(idx
            .deps
            .iter()
            .any(|d| d.data_key == "data:news:1" && d.weight < 1.0));
    }

    #[test]
    fn rendering_is_deterministic() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let a = r.render(PageKey::Medals);
        let b = r.render(PageKey::Medals);
        assert_eq!(a.body, b.body);
        assert_eq!(a.deps, b.deps);
        assert_eq!(a.cost_ms, b.cost_ms);
    }

    #[test]
    fn bodies_meet_their_size_targets() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        for key in [
            PageKey::Home(2),
            PageKey::Event(nagano_db::EventId(1)),
            PageKey::Athlete(AthleteId(1)),
            PageKey::Medals,
        ] {
            let out = r.render(key);
            assert_eq!(out.body.len(), target_bytes(key), "{key}");
        }
    }

    #[test]
    fn unknown_entities_render_gracefully() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let out = r.render(PageKey::Athlete(AthleteId(9999)));
        let html = String::from_utf8(out.body.to_vec()).unwrap();
        assert!(html.contains("Unknown"));
    }

    #[test]
    fn simulated_cpu_burns_time() {
        let (db, _) = seeded();
        // Scale 0.1: a 120ms athlete page burns ~12ms.
        let r = Renderer::new(db).with_simulated_cpu(0.1);
        #[expect(
            clippy::disallowed_methods,
            reason = "the wall clock is what this test measures"
        )]
        let start = std::time::Instant::now();
        r.render(PageKey::Athlete(AthleteId(1)));
        assert!(start.elapsed().as_millis() >= 8);
    }

    /// How many of the home page's events `body` shows as final — or how
    /// it fails to show one committed state: per event the result rows,
    /// the phase label and the `Gold:` line must agree; the finals must be
    /// a prefix of the day (they are committed in id order); and the medal
    /// table must have counted exactly those finals.
    fn finals_shown(body: &[u8]) -> Result<usize, String> {
        let html = std::str::from_utf8(body).unwrap();
        let mut chunks = html.split("<table class=\"results\">");
        let before = chunks.next().unwrap();
        let mut finals = 0;
        let mut open_seen = false;
        for (i, chunk) in chunks.enumerate() {
            let (table, rest) = chunk.split_once("</table>").unwrap();
            let rows = table.matches("<tr>").count();
            let label_final = rest.contains("— final</section>");
            let gold = rest.contains("<p>Gold: ");
            if (rows > 0) != label_final || label_final != gold {
                return Err(format!(
                    "event {i} is torn: {rows} rows, final label {label_final}, gold line {gold}"
                ));
            }
            if label_final && open_seen {
                return Err(format!("event {i} is final after an open one"));
            }
            open_seen |= !label_final;
            finals += label_final as usize;
        }
        let (_, medals) = before.split_once("<table class=\"medals\">").unwrap();
        let golds: usize = medals
            .split("<tr><td>")
            .skip(1)
            .map(|row| {
                row.split("</td><td>")
                    .nth(1)
                    .unwrap()
                    .parse::<usize>()
                    .unwrap()
            })
            .sum();
        if golds != finals {
            return Err(format!(
                "{golds} golds in the medal table, {finals} finals below it"
            ));
        }
        Ok(finals)
    }

    #[test]
    fn a_home_page_shows_one_committed_state_while_finals_land() {
        use nagano_db::{Event, EventId};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
        use std::sync::mpsc;
        use std::time::Duration;

        const EVENTS: u32 = 40;
        let (db, _) = seeded();
        // Day 1 has no seeded events: give it forty of its own.
        let sport = db.sports()[0].id;
        for i in 0..EVENTS {
            db.load_event(Event {
                id: EventId(1_000 + i),
                sport,
                name: format!("Heat {i}"),
                day: 1,
                hour: 9,
                popularity: 1.0,
                phase: EventPhase::Scheduled,
            });
        }
        let podium: Vec<(AthleteId, f64)> = db
            .athletes_of_sport(sport)
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, a)| (a.id, 100.0 - i as f64))
            .collect();
        let renders = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let torn = Arc::new(AtomicBool::new(false));
        // Each thread reports in on every way out except a hang.
        let (finished, watchdog) = mpsc::channel();

        let committer = std::thread::spawn({
            let (db, renders, done, torn, finished) = (
                Arc::clone(&db),
                Arc::clone(&renders),
                Arc::clone(&done),
                Arc::clone(&torn),
                finished.clone(),
            );
            move || {
                for i in 0..EVENTS {
                    // Let each commit go as one render ends, so that it
                    // lands inside the next.
                    let seen = renders.load(SeqCst);
                    while renders.load(SeqCst) == seen && !torn.load(SeqCst) {
                        std::thread::yield_now();
                    }
                    db.record_results(EventId(1_000 + i), &podium, true, 1);
                }
                done.store(true, SeqCst);
                let _ = finished.send(());
            }
        });
        let rendering = std::thread::spawn(move || {
            let r = Renderer::new(db);
            let mut last = 0;
            let mut verdict = Ok(());
            while !done.load(SeqCst) {
                match finals_shown(&r.render(PageKey::Home(1)).body) {
                    Ok(shown) if shown >= last => last = shown,
                    Ok(shown) => verdict = Err(format!("finals went back from {last} to {shown}")),
                    Err(why) => verdict = Err(why),
                }
                if verdict.is_err() {
                    torn.store(true, SeqCst);
                    break;
                }
                renders.fetch_add(1, SeqCst);
            }
            let _ = finished.send(());
            verdict.map(|()| r)
        });

        // A render path that takes a second read lock hangs as soon as a
        // commit waits between the two, and the commit hangs behind it.
        for _ in 0..2 {
            watchdog
                .recv_timeout(Duration::from_secs(60))
                .expect("render and commit deadlocked (or ran for over a minute)");
        }
        blocking!(committer.join()).expect("committer panicked");
        let r = blocking!(rendering.join())
            .expect("renderer panicked")
            .unwrap_or_else(|why| panic!("torn home page: {why}"));
        assert_eq!(
            finals_shown(&r.render(PageKey::Home(1)).body),
            Ok(EVENTS as usize)
        );
    }

    /// What a cache entry keeps for a page: the body and its memo.
    type Held = Option<(Bytes, Box<PageMemo>)>;

    /// Render `key` onto the body `held` keeps for it, with its memo, and
    /// keep what comes back. Returns the render and whether its body is the
    /// held allocation — which it must be exactly when it is the held
    /// bytes, and whatever it is, a fresh render of the page.
    fn onto(r: &Renderer, key: PageKey, held: &mut Held) -> (RenderOutput, bool) {
        let (body, memo) = held.take().unzip();
        let (out, memo) = r.render_onto(key, body.as_ref().map(|body| (body, memo)));
        let fresh = Renderer::new(Arc::clone(r.db())).render(key).body;
        assert!(out.body == fresh, "{key}: not as a fresh render");
        let is_held = body
            .as_ref()
            .is_some_and(|b| b.as_ptr() == out.body.as_ptr());
        let as_held = body.is_some_and(|b| b == out.body);
        assert_eq!(is_held, as_held, "{key}: the held body iff the held bytes");
        *held = Some((out.body.clone(), memo));
        (out, is_held)
    }

    /// How `out` was answered: by its stamps, patched, or composed.
    fn arm(out: &RenderOutput) -> (bool, bool) {
        (out.revalidated, out.patched)
    }

    /// The content length of the body `held` keeps, as its memo has it.
    fn content_len(held: &Held) -> Option<usize> {
        held.as_ref().map(|(_, memo)| memo.content_len)
    }

    const UNMOVED: (bool, bool) = (true, false);
    const PATCHED: (bool, bool) = (false, true);
    const COMPOSED: (bool, bool) = (false, false);

    #[test]
    fn an_unmoved_page_is_the_held_body() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let mut held = None;
        let key = PageKey::Home(1);
        let (out, is_held) = onto(&r, key, &mut held);
        assert_eq!((arm(&out), is_held), (COMPOSED, false), "onto nothing");
        let (out, is_held) = onto(&r, key, &mut held);
        assert_eq!((arm(&out), is_held), (UNMOVED, true));
    }

    /// A story on `day`, which its home page lists in its headline strip.
    fn headline(day: u32, title: &str) -> NewsArticle {
        NewsArticle {
            id: NewsId(9_000),
            day,
            title: title.into(),
            body: "A story of the day".into(),
            about_event: None,
        }
    }

    #[test]
    fn a_patch_that_keeps_each_sections_length_is_the_held_body_iff_its_bytes_are() {
        let (db, _) = seeded();
        let r = Renderer::new(Arc::clone(&db));
        let (day, mut held) = (3, None);
        let key = PageKey::Home(day);
        db.publish_news(headline(day, "Stop-press"));
        onto(&r, key, &mut held);
        // Published again as it was, the story moves the strip's stamp and
        // none of its bytes; under another title of the title's length, it
        // moves bytes and no length.
        for (title, changed) in [("Stop-press", false), ("Stop-prest", true)] {
            db.publish_news(headline(day, title));
            let (out, is_held) = onto(&r, key, &mut held);
            assert_eq!((arm(&out), is_held), (PATCHED, !changed), "{title}");
        }
    }

    #[test]
    fn a_patch_that_moves_the_content_length_is_a_new_body() {
        let (db, _) = seeded();
        let ev = db.events()[0].clone();
        let r = Renderer::new(Arc::clone(&db));
        let (key, mut held) = (PageKey::Sport(ev.sport), None);
        onto(&r, key, &mut held);
        let before = content_len(&held);
        // A posting adds a row to one result table the page splices.
        let athlete = db.athletes_of_sport(ev.sport)[0].id;
        db.record_results(ev.id, &[(athlete, 9.5)], false, ev.day);
        let (out, is_held) = onto(&r, key, &mut held);
        assert_eq!((arm(&out), is_held), (PATCHED, false));
        assert_ne!(content_len(&held), before);
    }

    #[test]
    fn a_patch_whose_sections_trade_lengths_is_a_new_body() {
        let (db, _) = seeded();
        let events = db.events();
        let ev = events.iter().find(|e| e.phase == EventPhase::Scheduled);
        let ev = ev.expect("a scheduled event").clone();
        let r = Renderer::new(Arc::clone(&db));
        let (key, mut held) = (PageKey::Home(ev.day), None);
        db.publish_news(headline(ev.day, "Stop-press"));
        onto(&r, key, &mut held);
        let before = content_len(&held);
        // The event's block grows by two ("scheduled" → "in progress") and
        // the headline strip shrinks by two: the page keeps its length.
        db.record_results(ev.id, &[], false, ev.day);
        db.publish_news(headline(ev.day, "Stop-pre"));
        let (out, is_held) = onto(&r, key, &mut held);
        assert_eq!((arm(&out), is_held), (PATCHED, false));
        assert_eq!(content_len(&held), before);
    }

    /// Sections' HTML begins and ends with its markup, so no two moved
    /// sections of a page can trade lengths and leave its bytes as they
    /// were: the verdict's one arm no render reaches is taken here, on the
    /// patch itself. The held bytes are `x-x-x`; the runs at 0 (`x`) and 2
    /// (`x-x`) are rewritten as `x-x` and `x`, and as `x-y` and `x`.
    #[test]
    fn a_patch_whose_sections_trade_lengths_and_rebuild_the_held_bytes_is_the_held_body() {
        let splice = |start, len| Splice {
            section: Section::Roster(CountryId(1)),
            revision: 1,
            edges: 0,
            start,
            len,
        };
        let moved = |index, was, fresh| Moved {
            index,
            was,
            now: 2,
            fresh,
        };
        let moved = [moved(0, splice(0, 1), 0..3), moved(1, splice(2, 3), 3..4)];
        for (fresh, is_held) in [(b"x-xx", true), (b"x-yx", false)] {
            let patched = Patched {
                held: b"x-x-x",
                fresh,
                moved: &moved,
            };
            let mut bytes = Vec::new();
            patched.each(|part| bytes.extend_from_slice(part));
            assert_eq!(bytes == b"x-x-x", is_held);
            assert_eq!(patched.is_held(), is_held);
        }
    }

    #[test]
    fn a_compose_is_the_held_body_iff_it_comes_to_the_held_bytes() {
        let (db, _) = seeded();
        let ev = db.events()[0].clone();
        let athlete = db.athletes_of_sport(ev.sport)[0].id;
        let r = Renderer::new(Arc::clone(&db));
        let (key, mut held) = (PageKey::Athlete(athlete), None);
        onto(&r, key, &mut held);
        // An athlete's page reads rows no stamp covers: it is composed at
        // every render, to the held bytes while nothing it shows moved, and
        // to a page of another content length once a result row is added.
        let (out, is_held) = onto(&r, key, &mut held);
        assert_eq!((arm(&out), is_held), (COMPOSED, true));
        let before = content_len(&held);
        db.record_results(ev.id, &[(athlete, 9.5)], false, ev.day);
        let (out, is_held) = onto(&r, key, &mut held);
        assert_eq!((arm(&out), is_held), (COMPOSED, false));
        assert_ne!(content_len(&held), before);
    }
}
