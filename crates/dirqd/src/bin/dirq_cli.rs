//! One-shot protocol calls from the shell.
//!
//! ```text
//! dirq-cli [--addr HOST:PORT] [--raw FIELD] <command> [args…]
//!
//! commands:
//!   deploy NAME PRESET [--scale F] [--scheme LABEL] [--seed N] [--queue-cap N]
//!          [--checkpoint-every EPOCHS --checkpoint-dir DIR]
//!   query DEPLOYMENT STYPE LO HI [--region X0 Y0 X1 Y1] [--async] [--client TAG]
//!   poll DEPLOYMENT ID
//!   drain DEPLOYMENT [CURSOR]
//!   step DEPLOYMENT EPOCHS
//!   status
//!   fingerprint DEPLOYMENT
//!   snapshot DEPLOYMENT PATH
//!   restore NAME PATH
//!   shutdown
//! ```
//!
//! Prints the daemon's JSON response (pretty) on success; exits
//! non-zero with the error on stderr otherwise. `--raw FIELD` instead
//! prints just that top-level response field — strings unquoted,
//! everything else as compact JSON — so scripts capture ids, cursors
//! and fingerprints without scraping pretty output; a missing field is
//! an error.

use dirq_sim::json::Json;
use dirqd::Client;

const USAGE: &str = "usage: dirq-cli [--addr HOST:PORT] [--raw FIELD] <command> [args…]
  --raw FIELD   print only that top-level response field (for scripts)
commands:
  deploy NAME PRESET [--scale F] [--scheme LABEL] [--seed N] [--queue-cap N]
         [--checkpoint-every EPOCHS --checkpoint-dir DIR]
  query DEPLOYMENT STYPE LO HI [--region X0 Y0 X1 Y1] [--async] [--client TAG]
  poll DEPLOYMENT ID
  drain DEPLOYMENT [CURSOR]
  step DEPLOYMENT EPOCHS
  status
  fingerprint DEPLOYMENT
  snapshot DEPLOYMENT PATH
  restore NAME PATH
  shutdown";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_num(arg: &str, what: &str) -> f64 {
    arg.parse().unwrap_or_else(|_| {
        eprintln!("dirq-cli: {what} must be a number, got {arg:?}");
        std::process::exit(2);
    })
}

/// Parse an unsigned integer and wrap it losslessly for the wire —
/// seeds, query ids and epoch counts are u64s and must not round
/// through `f64`.
fn parse_u64(arg: &str, what: &str) -> Json {
    let v: u64 = arg.parse().unwrap_or_else(|_| {
        eprintln!("dirq-cli: {what} must be an unsigned integer, got {arg:?}");
        std::process::exit(2);
    });
    Json::from_u64(v)
}

fn main() {
    let mut addr = String::from("127.0.0.1:4710");
    let mut raw: Option<String> = None;
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    loop {
        match args.first().map(String::as_str) {
            Some("--addr") => {
                args.remove(0);
                if args.is_empty() {
                    usage_exit();
                }
                addr = args.remove(0);
            }
            Some("--raw") => {
                args.remove(0);
                if args.is_empty() {
                    usage_exit();
                }
                raw = Some(args.remove(0));
            }
            _ => break,
        }
    }
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage_exit();
    }
    let command = args.remove(0);

    // Build the request as raw protocol JSON — the CLI is a thin veneer.
    let mut req = Json::object();
    req.set("cmd", Json::Str(command.clone()));
    match command.as_str() {
        "deploy" => {
            if args.len() < 2 {
                usage_exit();
            }
            req.set("name", Json::Str(args[0].clone()));
            req.set("preset", Json::Str(args[1].clone()));
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                let value = rest.next().unwrap_or_else(|| usage_exit());
                match flag.as_str() {
                    "--scale" => req.set("scale", Json::Num(parse_num(value, "--scale"))),
                    "--scheme" => req.set("scheme", Json::Str(value.clone())),
                    "--seed" => req.set("seed", parse_u64(value, "--seed")),
                    "--queue-cap" => req.set("queue_cap", parse_u64(value, "--queue-cap")),
                    "--checkpoint-every" => {
                        req.set("checkpoint_every_epochs", parse_u64(value, "--checkpoint-every"))
                    }
                    "--checkpoint-dir" => req.set("checkpoint_dir", Json::Str(value.clone())),
                    _ => usage_exit(),
                };
            }
        }
        "query" => {
            if args.len() < 4 {
                usage_exit();
            }
            req.set("deployment", Json::Str(args[0].clone()));
            req.set("stype", Json::Num(parse_num(&args[1], "STYPE")));
            req.set("lo", Json::Num(parse_num(&args[2], "LO")));
            req.set("hi", Json::Num(parse_num(&args[3], "HI")));
            let mut rest = args[4..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--async" => {
                        req.set("async", Json::Bool(true));
                    }
                    "--client" => {
                        let tag = rest.next().unwrap_or_else(|| usage_exit());
                        req.set("client", Json::Str(tag.clone()));
                    }
                    "--region" => {
                        let corners: Vec<Json> = (0..4)
                            .map(|_| {
                                let c = rest.next().unwrap_or_else(|| usage_exit());
                                Json::Num(parse_num(c, "--region corner"))
                            })
                            .collect();
                        req.set("region", Json::Arr(corners));
                    }
                    _ => usage_exit(),
                }
            }
        }
        "poll" => {
            if args.len() != 2 {
                usage_exit();
            }
            req.set("deployment", Json::Str(args[0].clone()));
            req.set("id", parse_u64(&args[1], "ID"));
        }
        "drain" => {
            if args.is_empty() || args.len() > 2 {
                usage_exit();
            }
            req.set("deployment", Json::Str(args[0].clone()));
            if let Some(cursor) = args.get(1) {
                req.set("cursor", parse_u64(cursor, "CURSOR"));
            }
        }
        "step" => {
            if args.len() != 2 {
                usage_exit();
            }
            req.set("deployment", Json::Str(args[0].clone()));
            req.set("epochs", parse_u64(&args[1], "EPOCHS"));
        }
        "status" | "shutdown" => {
            if !args.is_empty() {
                usage_exit();
            }
        }
        "fingerprint" => {
            if args.len() != 1 {
                usage_exit();
            }
            req.set("deployment", Json::Str(args[0].clone()));
        }
        "snapshot" => {
            if args.len() != 2 {
                usage_exit();
            }
            req.set("deployment", Json::Str(args[0].clone()));
            req.set("path", Json::Str(args[1].clone()));
        }
        "restore" => {
            if args.len() != 2 {
                usage_exit();
            }
            req.set("name", Json::Str(args[0].clone()));
            req.set("path", Json::Str(args[1].clone()));
        }
        _ => usage_exit(),
    }

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dirq-cli: connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    match client.call(&req) {
        Ok(response) => match raw {
            None => print!("{}", response.render_pretty()),
            Some(field) => match response.get(&field) {
                Some(Json::Str(s)) => println!("{s}"),
                Some(v) => println!("{}", v.render()),
                None => {
                    eprintln!("dirq-cli: response has no field {field:?}");
                    std::process::exit(1);
                }
            },
        },
        Err(e) => {
            eprintln!("dirq-cli: {e}");
            std::process::exit(1);
        }
    }
}
