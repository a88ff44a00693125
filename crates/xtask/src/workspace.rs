//! Workspace discovery and the per-crate lint scoping policy.
//!
//! The walker finds every Rust source file that counts as *library code*:
//! the `src/` trees of each workspace member plus the facade crate at the
//! repository root. Integration tests, benches and examples (`tests/`,
//! `benches/`, `examples/` directories) are skipped wholesale — the lint
//! contract covers shipped library code, not test scaffolding.

use crate::rules::{lint_file, FileContext, Rule, Violation};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which rules apply to a crate, keyed by its directory name under
/// `crates/` (the facade package at the workspace root is `"infprop"`).
///
/// * `xtask` and `bench` are tooling: only the `forbid-unsafe` floor (bench
///   code times things with `Instant` by design, so no `no-raw-timing`).
/// * `cli` is a consumer binary: panics are still banned (it must render
///   `GraphError` nicely), but it prints by design and binary crates have no
///   public API surface to document.
/// * `core` and `hll` are the hot paths: everything, including the
///   default-hasher ban.
/// * `temporal-graph` carries the `Timestamp`/`NodeId` arithmetic, so the
///   lossy-cast rule applies there too.
/// * Remaining library crates (`datasets`, `diffusion`, `baselines`, the
///   facade) get the portable rules.
///
/// All non-tooling crates get `no-raw-timing`: clocks live behind the
/// `infprop_core::obs` recorder and the `infprop_core::trace` ring tracer,
/// whose implementation files (`obs.rs`, `trace.rs`) are the sanctioned
/// call sites: file discovery drops the rule for those two files.
pub fn rules_for_crate(crate_dir: &str) -> Vec<Rule> {
    match crate_dir {
        "xtask" | "bench" => vec![Rule::ForbidUnsafe],
        "cli" => vec![Rule::NoPanic, Rule::ForbidUnsafe, Rule::NoRawTiming],
        "core" | "hll" => vec![
            Rule::NoPanic,
            Rule::NoLossyCast,
            Rule::NoDefaultHashmap,
            Rule::PubDocs,
            Rule::ForbidUnsafe,
            Rule::NoPrint,
            Rule::NoRawTiming,
        ],
        "temporal-graph" => vec![
            Rule::NoPanic,
            Rule::NoLossyCast,
            Rule::PubDocs,
            Rule::ForbidUnsafe,
            Rule::NoPrint,
            Rule::NoRawTiming,
        ],
        _ => vec![
            Rule::NoPanic,
            Rule::PubDocs,
            Rule::ForbidUnsafe,
            Rule::NoPrint,
            Rule::NoRawTiming,
        ],
    }
}

/// A source file scheduled for linting.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Lint context (carries the workspace-relative path for diagnostics).
    pub ctx: FileContext,
}

/// Walks the workspace rooted at `root` and returns every library source
/// file with its lint context.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();

    // Facade crate: `src/` at the workspace root.
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_crate(root, &facade_src, "infprop", &mut files)?;
    }

    // Workspace members under `crates/`.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let src = dir.join("src");
            if src.is_dir() {
                collect_crate(root, &src, &name, &mut files)?;
            }
        }
    }

    Ok(files)
}

/// Recursively collects `.rs` files under one crate's `src/` tree.
fn collect_crate(
    root: &Path,
    src: &Path,
    crate_dir: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let rules = rules_for_crate(crate_dir);
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                // `src/` subtrees named like test scaffolding are still
                // modules; only top-level tests/benches/examples dirs sit
                // outside `src/`, so no filtering is needed here.
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let is_crate_root = path
                    .file_name()
                    .is_some_and(|n| n == "lib.rs" || n == "main.rs")
                    && path.parent() == Some(src);
                // The observability and tracing modules are where clocks
                // are implemented; they are the only library files allowed
                // raw `Instant` (everything else reads time through the
                // recorder or a tracer).
                let is_clock_impl = crate_dir == "core"
                    && path
                        .file_name()
                        .is_some_and(|n| n == "obs.rs" || n == "trace.rs");
                let mut rules = rules.clone();
                if is_clock_impl {
                    rules.retain(|r| *r != Rule::NoRawTiming);
                }
                // The layered-oracle delta path promises clock-free appends
                // and compactions; there `no-raw-timing` cannot be waived
                // even with an `xtask-allow` comment.
                let mut unwaivable = Vec::new();
                if crate_dir == "core" && path.file_name().is_some_and(|n| n == "delta.rs") {
                    unwaivable.push(Rule::NoRawTiming);
                }
                // `#![forbid(unsafe_code)]` is non-negotiable in every
                // crate root except core's, which hosts the cfg-gated
                // unsafe module (the mmap arena behind `mmap`) and
                // downgrades to a reviewed conditional forbid + waiver
                // there. No other crate can
                // waive its way out of the forbid with a comment.
                if crate_dir != "core" {
                    unwaivable.push(Rule::ForbidUnsafe);
                }
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                out.push(SourceFile {
                    abs_path: path.clone(),
                    ctx: FileContext {
                        path: rel,
                        rules,
                        unwaivable,
                        is_crate_root,
                    },
                });
            }
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`. Returns all violations,
/// sorted by file then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for file in discover(root)? {
        let source = fs::read_to_string(&file.abs_path)?;
        violations.extend(lint_file(&file.ctx, &source));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch workspace under the system temp dir, removed on drop.
    struct TempWorkspace(PathBuf);

    impl TempWorkspace {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("infprop-xtask-ws-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            TempWorkspace(root)
        }

        fn write(&self, rel: &str, text: &str) {
            let path = self.0.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
    }

    impl Drop for TempWorkspace {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const ROOT: &str = "#![forbid(unsafe_code)]\n//! Crate docs.\n";

    fn mini_workspace(tag: &str) -> TempWorkspace {
        let ws = TempWorkspace::new(tag);
        ws.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        ws.write("src/lib.rs", ROOT);
        ws.write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
        ws.write("crates/core/src/lib.rs", ROOT);
        ws.write("crates/core/src/obs.rs", "//! Clocks.\n");
        ws.write("crates/core/src/delta.rs", "//! Layers.\n");
        ws.write("crates/core/src/sub/mod.rs", "//! Nested.\n");
        ws.write("crates/core/tests/it.rs", "fn main() { println!(); }\n");
        ws.write("crates/cli/Cargo.toml", "[package]\nname = \"cli\"\n");
        ws.write("crates/cli/src/main.rs", ROOT);
        // A directory without a manifest is not a member.
        ws.write("crates/notes/src/lib.rs", "fn x() { println!(); }\n");
        ws
    }

    #[test]
    fn rules_scope_tooling_consumers_and_hot_paths() {
        assert_eq!(rules_for_crate("xtask"), vec![Rule::ForbidUnsafe]);
        assert_eq!(rules_for_crate("bench"), vec![Rule::ForbidUnsafe]);
        let cli = rules_for_crate("cli");
        assert!(cli.contains(&Rule::NoPanic) && !cli.contains(&Rule::PubDocs));
        assert!(!cli.contains(&Rule::NoPrint));
        for hot in ["core", "hll"] {
            let rules = rules_for_crate(hot);
            assert_eq!(rules.len(), 7, "{hot} gets every rule");
            assert!(rules.contains(&Rule::NoDefaultHashmap));
        }
        let graph = rules_for_crate("temporal-graph");
        assert!(graph.contains(&Rule::NoLossyCast) && !graph.contains(&Rule::NoDefaultHashmap));
        let other = rules_for_crate("diffusion");
        assert!(!other.contains(&Rule::NoLossyCast));
        assert!(other.contains(&Rule::NoRawTiming) && other.contains(&Rule::PubDocs));
    }

    #[test]
    fn discover_finds_every_member_library_source() {
        let ws = mini_workspace("discover");
        let files = discover(&ws.0).unwrap();
        let mut paths: Vec<String> = files
            .iter()
            .map(|f| f.ctx.path.to_string_lossy().replace('\\', "/"))
            .collect();
        paths.sort();
        assert_eq!(
            paths,
            vec![
                "crates/cli/src/main.rs",
                "crates/core/src/delta.rs",
                "crates/core/src/lib.rs",
                "crates/core/src/obs.rs",
                "crates/core/src/sub/mod.rs",
                "src/lib.rs",
            ]
        );
        for f in &files {
            assert!(f.abs_path.starts_with(&ws.0));
        }
    }

    #[test]
    fn discover_adjusts_rules_per_file() {
        let ws = mini_workspace("per-file");
        let files = discover(&ws.0).unwrap();
        let ctx = |rel: &str| {
            &files
                .iter()
                .find(|f| f.ctx.path == Path::new(rel))
                .unwrap()
                .ctx
        };
        assert!(ctx("crates/core/src/lib.rs").is_crate_root);
        assert!(ctx("crates/cli/src/main.rs").is_crate_root);
        assert!(ctx("src/lib.rs").is_crate_root);
        assert!(!ctx("crates/core/src/sub/mod.rs").is_crate_root);
        // The clock implementations may read raw time; delta.rs may never
        // waive the ban.
        assert!(!ctx("crates/core/src/obs.rs")
            .rules
            .contains(&Rule::NoRawTiming));
        assert!(ctx("crates/core/src/sub/mod.rs")
            .rules
            .contains(&Rule::NoRawTiming));
        assert_eq!(
            ctx("crates/core/src/delta.rs").unwaivable,
            vec![Rule::NoRawTiming]
        );
        // Only core may waive the unsafe forbid.
        assert!(ctx("crates/cli/src/main.rs")
            .unwaivable
            .contains(&Rule::ForbidUnsafe));
        assert!(ctx("src/lib.rs").unwaivable.contains(&Rule::ForbidUnsafe));
        assert!(!ctx("crates/core/src/lib.rs")
            .unwaivable
            .contains(&Rule::ForbidUnsafe));
    }

    #[test]
    fn lint_workspace_reports_sorted_violations() {
        let ws = mini_workspace("lint");
        assert!(lint_workspace(&ws.0).unwrap().is_empty());
        ws.write(
            "crates/core/src/sub/mod.rs",
            "//! Nested.\n\nfn a() {\n    println!(\"x\");\n}\n",
        );
        // A crate root without the forbid.
        ws.write("src/lib.rs", "//! Facade.\n");
        let found = lint_workspace(&ws.0).unwrap();
        let summary: Vec<(String, u32, Rule)> = found
            .iter()
            .map(|v| (v.file.to_string_lossy().replace('\\', "/"), v.line, v.rule))
            .collect();
        assert_eq!(
            summary,
            vec![
                ("crates/core/src/sub/mod.rs".to_string(), 4, Rule::NoPrint),
                ("src/lib.rs".to_string(), 1, Rule::ForbidUnsafe),
            ]
        );
    }

    #[test]
    fn find_workspace_root_skips_member_manifests() {
        let ws = mini_workspace("root");
        let deep = ws.0.join("crates/core/src/sub");
        assert_eq!(find_workspace_root(&deep), Some(ws.0.clone()));
        assert_eq!(find_workspace_root(&ws.0), Some(ws.0.clone()));
        // Without the workspace manifest, the member's own manifest (no
        // `[workspace]` table) does not count.
        fs::remove_file(ws.0.join("Cargo.toml")).unwrap();
        let found = find_workspace_root(&deep);
        assert!(found.is_none_or(|r| !r.starts_with(&ws.0)));
    }
}
