// Fixture: pagegen renderer with ODG defects — `Standings` registers a
// medals edge it never reads (O002), `Roster` reads country data with
// no covering edge (O001), and so does `Profile`, which reads through
// the render's `DbView` instead of `self.db` (O001 again). `ScheduleRow`
// coverage comes from fragments.rs in this fixture workspace.

impl Renderer {
    fn render_page(&self, key: PageKey, html: &mut String, deps: &mut Vec<Dependency>) -> String {
        match key {
            PageKey::Standings(day) => {
                deps.push(Dependency::new(nagano_db::schema::today_data_key(day)));
                // Dead edge: nothing below reads the medal standings.
                deps.push(Dependency::weighted(
                    nagano_db::schema::medals_data_key(),
                    0.25,
                ));
                for event in self.db.events_on_day(day) {
                    deps.push(Dependency::new(
                        PageKey::Fragment(FragmentKey::ScheduleRow(event.id)).object_key(),
                    ));
                    deps.push(Dependency::weighted(event.id.data_key(), 1.0));
                    self.inline_fragment(
                        FragmentKey::ScheduleRow(event.id),
                        html,
                        slots.as_deref_mut(),
                    );
                }
                format!("Standings day {day}")
            }
            PageKey::Roster(c) => {
                // Uncovered read: a roster change never invalidates this page.
                for a in self.db.athletes_of_country(c) {
                    let _ = writeln!(html, "<div>{}</div>", a.name);
                }
                "Roster".to_string()
            }
            PageKey::Profile(a) => {
                // Uncovered read through the view: new results never reach this page.
                let db = self.db.view();
                for r in db.results_for_athlete(a) {
                    let _ = writeln!(html, "<div>{}</div>", r.rank);
                }
                "Profile".to_string()
            }
        }
    }
}
