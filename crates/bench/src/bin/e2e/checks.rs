//! Output checks: every operation attempted is counted, and the ones
//! whose result was wrong are counted as failed and named.

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Each distinct failed check, once.
    pub notes: Vec<String>,
}

impl Checks {
    /// `attempted` operations of one kind, of which `failed` were wrong.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && !self.notes.iter().any(|n| n == what) {
            self.notes.push(what.to_string());
        }
    }

    /// One yes/no check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }
}
