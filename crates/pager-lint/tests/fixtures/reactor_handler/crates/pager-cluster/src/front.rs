use std::sync::Arc;
use std::time::Duration;

pub struct Router;

impl Handler for Router {
    fn on_line(self: Arc<Self>, line: &str) -> bool {
        // A backend round trip answered inline: the seeded violation.
        std::thread::sleep(Duration::from_millis(1));
        !line.is_empty()
    }
}
