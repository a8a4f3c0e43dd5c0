//! Workspace discovery: find the root, collect the `.rs` files.

use std::path::{Path, PathBuf};

/// Directories never scanned. `fixtures` holds pager-lint's own
/// seeded-violation workspaces (crates/pager-lint/tests/fixtures/),
/// which must not count as findings of the real workspace.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules", "fixtures"];

/// Whether `dir`'s `Cargo.toml` declares `[workspace]`.
fn declares_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| declares_workspace(dir))
        .map(Path::to_path_buf)
}

/// Collects every `.rs` file under `root` (skipping build/VCS
/// directories), as workspace-relative `/`-separated paths, sorted.
///
/// A directory below `root` whose `Cargo.toml` declares `[workspace]`
/// is a separate workspace: its code is not linked into this one, so
/// walking it would merge its same-named functions into this call
/// graph. The walk stops there.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref())
                    && !name.starts_with('.')
                    && !declares_workspace(&path)
                {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn collects_and_skips() {
        let dir = std::env::temp_dir().join(format!("pager-lint-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::create_dir_all(dir.join("target/debug")).unwrap();
        std::fs::write(dir.join("src/a.rs"), "fn a() {}").unwrap();
        std::fs::write(dir.join("src/b.txt"), "not rust").unwrap();
        std::fs::write(dir.join("target/debug/gen.rs"), "fn gen() {}").unwrap();
        let files = collect_rust_files(&dir).unwrap();
        assert_eq!(files, vec!["src/a.rs".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stops_at_nested_workspaces() {
        let dir = std::env::temp_dir().join(format!("pager-lint-nested-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (path, text) in [
            ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
            ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n"),
            ("crates/a/src/lib.rs", "fn a() {}"),
            // A package with an empty `[workspace]` table of its own.
            (
                "bench/Cargo.toml",
                "[package]\nname = \"b\"\n\n[workspace]\n",
            ),
            ("bench/src/main.rs", "fn a() {}"),
            // A plain directory with no manifest is still walked.
            ("tools/src/t.rs", "fn t() {}"),
        ] {
            let path = dir.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        let files = collect_rust_files(&dir).unwrap();
        assert_eq!(files, ["crates/a/src/lib.rs", "tools/src/t.rs"]);
        // The nested workspace is still a root of its own.
        assert_eq!(
            find_workspace_root(&dir.join("bench/src")),
            Some(dir.join("bench"))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
