//! Seeded violation: a blocking call reachable from the shard loop
//! only through the `Handler` trait. `no-blocking-in-reactor` must fan
//! `handler.on_line` out to every `impl Handler` and report the
//! `thread::sleep` on the router's inline path.

use std::sync::Arc;

pub trait Handler {
    fn on_line(self: Arc<Self>, line: &str) -> bool;
}

pub struct Shard {
    handler: Arc<dyn Handler>,
    lines: Vec<String>,
}

impl Shard {
    pub fn run(&mut self) {
        while let Some(line) = self.lines.pop() {
            self.dispatch(&line);
        }
    }

    fn dispatch(&self, line: &str) -> bool {
        let handler: Arc<dyn Handler> = Arc::clone(&self.handler);
        handler.on_line(line)
    }
}
