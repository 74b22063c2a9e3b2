// Fixture: the renderer from fixtures/semantic with its ODG defects
// fixed — `Standings` actually renders the medal box its edge tracks,
// `Roster` registers the country edge its read needs, and `Profile`
// registers the athlete edge its read through the `DbView` needs.

impl Renderer {
    fn render_page(&self, key: PageKey, html: &mut String, deps: &mut Vec<Dependency>) -> String {
        match key {
            PageKey::Standings(day) => {
                deps.push(Dependency::new(nagano_db::schema::today_data_key(day)));
                deps.push(Dependency::weighted(
                    nagano_db::schema::medals_data_key(),
                    0.25,
                ));
                for (c, m) in self.db.medal_standings().iter().take(3) {
                    let _ = writeln!(html, "<span>{} {}</span>", c, m.gold);
                }
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
                deps.push(Dependency::new(nagano_db::CountryId(c.0).data_key()));
                for a in self.db.athletes_of_country(c) {
                    let _ = writeln!(html, "<div>{}</div>", a.name);
                }
                "Roster".to_string()
            }
            PageKey::Profile(a) => {
                deps.push(Dependency::new(nagano_db::AthleteId(a.0).data_key()));
                let db = self.db.view();
                for r in db.results_for_athlete(a) {
                    let _ = writeln!(html, "<div>{}</div>", r.rank);
                }
                "Profile".to_string()
            }
        }
    }
}
