//! The `payless` binary: parse arguments, run one-shot SQL or the REPL.

use std::io::{BufRead, Write};

use payless_cli::{App, CliArgs, Reply};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args: CliArgs = match payless_cli::args::parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.contains("USAGE") { 0 } else { 2 });
        }
    };
    // Connect mode: drive a running payless-server over sockets, print the
    // reconciled summary, and exit — no shell.
    if args.connect.is_some() {
        match payless_cli::run_connect(&args) {
            Ok(summary) => {
                println!("{summary}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    // Serve mode: replay a multi-client mix, print the reconciled summary,
    // and exit — no shell.
    if args.serve_threads.is_some() {
        match payless_cli::run_serve(&args) {
            Ok(summary) => {
                println!("{summary}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut app = match App::new(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    // One-shot mode.
    if let Some(sql) = &args.sql {
        if let Reply::Text(s) = app.handle(sql) {
            println!("{s}");
        }
        if let Some(msg) = app.finish() {
            println!("{msg}");
        }
        return;
    }

    // Interactive shell.
    println!("{}", app.banner());
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("payless> ");
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => match app.handle(&line) {
                Reply::Text(s) => {
                    if !s.is_empty() {
                        println!("{s}");
                    }
                }
                Reply::Quit => break,
            },
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
    }
    if let Some(msg) = app.finish() {
        println!("{msg}");
    }
}
