//! Golden `/v1/dvf` hierarchy reply of the MC repro model, pinned byte
//! for byte. MC's `order { (G E) }` group splits each level's cache
//! between its two structures by size, so this pins the per-level
//! sharing ratios as well as the per-storage exposures and protect rows.

use dvf_serve::http::Request;
use dvf_serve::{api, ServeCtx, ServerConfig};

#[test]
fn mc_hierarchy_dvf_body() {
    let models = concat!(env!("CARGO_MANIFEST_DIR"), "/../repro/models/");
    let read = |name: &str| std::fs::read_to_string(format!("{models}{name}")).expect(name);
    let mut w = dvf_obs::JsonWriter::new();
    w.string(&format!("{}{}", read("machines.aspen"), read("mc.aspen")));
    let body = format!(
        r#"{{"source":{},"machine":"profile_8mb","hierarchy":[{{"assoc":8,"sets":64,"line":64}},{{"assoc":16,"sets":1024,"line":64}},{{"assoc":16,"sets":8192,"line":64}}]}}"#,
        w.finish()
    );
    let req = Request {
        method: "POST".to_owned(),
        path: "/v1/dvf".to_owned(),
        query: None,
        headers: Vec::new(),
        body: body.into_bytes(),
    };
    let resp = api::route(&req, &ServeCtx::new(ServerConfig::default()));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.body,
        r#"{"schema":"dvf-serve/1","ok":true,"app":"mc","fit_per_mbit":5000.0,"time_s":0.004302848,"dvf_app":0.0003333753306407822,"storages":["L2","L3","memory"],"structures":[{"name":"G","size_bytes":8000000,"exposures":{"L2":224744.0,"L3":216808.0,"memory":159464.0},"dvf":0.00022987382165048887},{"name":"E","size_bytes":4800000,"exposures":{"L2":174744.0,"L3":166808.0,"memory":109464.0},"dvf":0.00010350150899029331}],"protect":[{"protected":"none","dvf_app":0.0003333753306407822},{"protected":"L2","dvf_app":0.00020731511788885332},{"protected":"L3","dvf_app":0.00021217163724572444},{"protected":"memory","dvf_app":0.0002472639061469866}]}"#
    );
}
