//! Page model for the Olympic site: identities, registry, renderer,
//! generation-cost model, and the 1996/1998 navigation structures.
//!
//! §3.1 of the paper describes the nine content categories and the page
//! redesign that grew the dynamic page count from a few thousand (1996) to
//! over 20,000 (1998). This crate reproduces that page space:
//!
//! * [`key`] — typed page identities ([`PageKey`]) including **page
//!   fragments** (Figure 15: result tables, medal tables, headline strips
//!   are cached objects *and* underlying data for the pages composed from
//!   them).
//! * [`registry`] — enumerates the full page space for a seeded Games and
//!   carries per-page metadata (dynamic vs static, nominal byte size,
//!   popularity weight).
//! * [`space`] — every page's dense slot ([`PageSpace`]), the key the
//!   serving caches and the trigger monitor index pages by.
//! * [`render`] — renders any page from the database, returning the body
//!   *and the dependency list* the application must register with DUP
//!   ("an application program is responsible for communicating data
//!   dependencies ... to the cache"). The list is a by-product of the
//!   reads: the renderer reaches the database only through the private
//!   `reads` module, whose every query pushes the edge for what it read.
//! * [`cost`] — the generation cost model: static pages take 2–10 ms of
//!   CPU; dynamic pages one to two orders of magnitude more (the paper's
//!   reference \[8\]).
//! * [`structure`] — the 1996 and 1998 page hierarchies as navigation
//!   models for the `nav` experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod cost;
pub mod key;
mod num;
mod plan;
mod reads;
pub mod registry;
pub mod render;
pub mod space;
pub mod structure;

pub use cost::CostModel;
pub use key::{FragmentKey, PageKey};
pub use registry::{PageMeta, PageRegistry};
pub use render::{Dependency, PageMemo, RenderOutput, Renderer};
pub use space::PageSpace;
pub use structure::{NavigationModel, SiteStructure};
