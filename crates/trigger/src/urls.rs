//! A site's page URLs as its cache's key space.

use std::sync::Arc;

use nagano_cache::KeySpace;
use nagano_pagegen::{PageKey, PageRegistry, PageSpace};

/// The URLs of a site's pages, resolved to their slots in its page space:
/// the [`KeySpace`] a site's cache is built with, so that a caller holding
/// only a URL — the benchmark harness, a test — can name a page to the
/// cache. The serving and update paths name pages by slot.
#[derive(Debug, Clone, Copy)]
pub struct PageUrls(pub PageSpace);

impl PageUrls {
    /// The key space of `registry`'s pages.
    pub fn of(registry: &PageRegistry) -> Arc<PageUrls> {
        Arc::new(PageUrls(*registry.space()))
    }
}

impl KeySpace for PageUrls {
    fn slot(&self, url: &str) -> Option<u32> {
        self.0.slot(PageKey::parse(url)?)
    }

    fn name(&self, slot: u32) -> String {
        self.0
            .key(slot)
            .map_or_else(|| slot.to_string(), PageKey::to_url)
    }
}
