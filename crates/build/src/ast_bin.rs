//! A binary codec for *concrete* (fully elaborated) Filament components.
//!
//! Artifacts store the expanded component only in this encoding, written
//! and read through [`calyx_lite::serial`]'s shared [`Writer`]/[`Reader`]:
//! warm loads decode it directly, with no parser involved. The codec covers
//! exactly the monomorphizer's output language — literal widths and
//! offsets, flat names, scalar ports, no generate constructs — and
//! [`encode`] returns `None` for anything outside it; the driver then does
//! not cache that unit. Decoding is corruption-safe like the rest of the
//! artifact: every tag and length is validated, and any failure is a cache
//! miss, never a panic.
//!
//! The encoding is versioned by [`crate::artifact::ARTIFACT_VERSION`]
//! (this module is artifact-internal, not a standalone format).

use calyx_lite::serial::{DecodeError, Reader, Writer};
use filament_core::ast::{
    Command, Component, ConstExpr, ConstraintOp, Delay, EventDecl, IName, InterfaceDef,
    OrderConstraint, Port, PortDef, Range, Signature, Time,
};

// --------------------------------------------------------------- encoding

fn lit(w: &mut Writer<'_>, e: &ConstExpr) -> Option<()> {
    match e {
        ConstExpr::Lit(v) => {
            w.u64(*v);
            Some(())
        }
        _ => None,
    }
}

fn flat(w: &mut Writer<'_>, n: &IName) -> Option<()> {
    w.str(n.flat()?);
    Some(())
}

fn time(w: &mut Writer<'_>, t: &Time) -> Option<()> {
    w.str(&t.event);
    lit(w, &t.offset)
}

fn port(w: &mut Writer<'_>, p: &Port) -> Option<()> {
    match p {
        Port::This(name) => {
            w.u8(0);
            w.str(name);
        }
        Port::Lit(v) => {
            w.u8(1);
            w.u64(*v);
        }
        Port::Inv { invocation, port } => {
            w.u8(2);
            flat(w, invocation)?;
            w.str(port);
        }
        Port::Bundle { .. } | Port::InvBundle { .. } => return None,
    }
    Some(())
}

/// Encodes a concrete component, or `None` if it falls outside the
/// concrete subset (residual parameters, bundles, generate constructs,
/// indexed names, symbolic offsets).
pub fn encode(c: &Component) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let w = &mut Writer::new(&mut out);
    let sig = &c.sig;
    if !sig.params.is_empty() {
        return None;
    }
    w.str(&sig.name);
    w.u32(sig.events.len() as u32);
    for e in &sig.events {
        w.str(&e.name);
        match &e.delay {
            Delay::Const(n) => {
                w.u8(0);
                w.u64(*n);
            }
            Delay::Diff(a, b) => {
                w.u8(1);
                time(w, a)?;
                time(w, b)?;
            }
        }
    }
    w.u32(sig.interfaces.len() as u32);
    for i in &sig.interfaces {
        w.str(&i.name);
        w.str(&i.event);
    }
    for ports in [&sig.inputs, &sig.outputs] {
        w.u32(ports.len() as u32);
        for p in ports {
            if p.bundle.is_some() {
                return None;
            }
            w.str(&p.name);
            time(w, &p.liveness.start)?;
            time(w, &p.liveness.end)?;
            lit(w, &p.width)?;
        }
    }
    w.u32(sig.constraints.len() as u32);
    for c in &sig.constraints {
        time(w, &c.lhs)?;
        w.u8(match c.op {
            ConstraintOp::Gt => 0,
            ConstraintOp::Ge => 1,
            ConstraintOp::Eq => 2,
        });
        time(w, &c.rhs)?;
    }
    w.u32(c.body.len() as u32);
    for cmd in &c.body {
        match cmd {
            Command::Instance {
                name,
                component,
                params,
            } => {
                w.u8(0);
                flat(w, name)?;
                w.str(component);
                w.u32(params.len() as u32);
                for p in params {
                    lit(w, p)?;
                }
            }
            Command::Invoke {
                name,
                instance,
                events,
                args,
            } => {
                w.u8(1);
                flat(w, name)?;
                flat(w, instance)?;
                w.u32(events.len() as u32);
                for t in events {
                    time(w, t)?;
                }
                w.u32(args.len() as u32);
                for a in args {
                    port(w, a)?;
                }
            }
            Command::Connect { dst, src } => {
                w.u8(2);
                port(w, dst)?;
                port(w, src)?;
            }
            Command::ForGen { .. } | Command::IfGen { .. } => return None,
        }
    }
    Some(out)
}

// --------------------------------------------------------------- decoding

fn get_time(r: &mut Reader<'_>) -> Result<Time, DecodeError> {
    Ok(Time::new(r.str()?, r.u64()?))
}

fn get_port(r: &mut Reader<'_>) -> Result<Port, DecodeError> {
    Ok(match r.u8()? {
        0 => Port::This(r.str()?),
        1 => Port::Lit(r.u64()?),
        2 => Port::Inv {
            invocation: IName::plain(r.str()?),
            port: r.str()?,
        },
        tag => return Err(DecodeError::BadTag { what: "port", tag }),
    })
}

fn get_port_defs(r: &mut Reader<'_>) -> Result<Vec<PortDef>, DecodeError> {
    let n = r.count(5)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(PortDef {
            name: r.str()?,
            liveness: Range::new(get_time(r)?, get_time(r)?),
            width: ConstExpr::Lit(r.u64()?),
            bundle: None,
        });
    }
    Ok(out)
}

/// Decodes a concrete component. Any failure means the artifact is
/// unusable and the unit is rebuilt.
///
/// # Errors
///
/// Returns the first validation failure; never panics on any byte
/// sequence.
pub fn decode(bytes: &[u8]) -> Result<Component, DecodeError> {
    let r = &mut Reader::new(bytes);
    let name = r.str()?;
    let n = r.count(5)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let delay = match r.u8()? {
            0 => Delay::Const(r.u64()?),
            1 => Delay::Diff(get_time(r)?, get_time(r)?),
            tag => return Err(DecodeError::BadTag { what: "delay", tag }),
        };
        events.push(EventDecl { name, delay });
    }
    let n = r.count(5)?;
    let mut interfaces = Vec::with_capacity(n);
    for _ in 0..n {
        interfaces.push(InterfaceDef {
            name: r.str()?,
            event: r.str()?,
        });
    }
    let inputs = get_port_defs(r)?;
    let outputs = get_port_defs(r)?;
    let n = r.count(5)?;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        let lhs = get_time(r)?;
        let op = match r.u8()? {
            0 => ConstraintOp::Gt,
            1 => ConstraintOp::Ge,
            2 => ConstraintOp::Eq,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "constraint",
                    tag,
                })
            }
        };
        constraints.push(OrderConstraint {
            lhs,
            op,
            rhs: get_time(r)?,
        });
    }
    let n = r.count(1)?;
    let mut body = Vec::with_capacity(n);
    for _ in 0..n {
        body.push(match r.u8()? {
            0 => {
                let name = IName::plain(r.str()?);
                let component = r.str()?;
                let np = r.count(8)?;
                let params = (0..np)
                    .map(|_| Ok(ConstExpr::Lit(r.u64()?)))
                    .collect::<Result<_, DecodeError>>()?;
                Command::Instance {
                    name,
                    component,
                    params,
                }
            }
            1 => {
                let name = IName::plain(r.str()?);
                let instance = IName::plain(r.str()?);
                let ne = r.count(5)?;
                let events = (0..ne).map(|_| get_time(r)).collect::<Result<_, _>>()?;
                let na = r.count(1)?;
                let args = (0..na).map(|_| get_port(r)).collect::<Result<_, _>>()?;
                Command::Invoke {
                    name,
                    instance,
                    events,
                    args,
                }
            }
            2 => Command::Connect {
                dst: get_port(r)?,
                src: get_port(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "command",
                    tag,
                })
            }
        });
    }
    if !r.rest().is_empty() {
        return Err(DecodeError::Invalid("trailing ast bytes"));
    }
    Ok(Component {
        sig: Signature {
            name,
            params: Vec::new(),
            events,
            interfaces,
            inputs,
            outputs,
            constraints,
        },
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use filament_core::{mono, parse_program};

    /// Every concrete component in the expansion of a representative
    /// program must roundtrip exactly — and match what parsing the pretty
    /// text yields.
    #[test]
    fn roundtrips_expanded_components_exactly() {
        let p = parse_program(
            "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
             extern comp Register[W]<G: L-(G+1), L: 1>(@interface[G] en: 1,
                 @[G, G+1] in: W) -> (@[G+1, L] out: W) where L > G+1;
             comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {
               s[0] := new Delay[W]<G>(in);
               for i in 1..D {
                 s[i] := new Delay[W]<G+i>(s[i-1].out);
               }
               out = s[D-1].out;
             }
             comp Main<G: 4>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+3, G+4] o: 8) {
               c := new Chain[8, 3]<G>(x);
               r := new Register[8]<G+3, G+5>(c.out);
               o = c.out;
             }",
        )
        .unwrap();
        let expanded = mono::expand(&p).unwrap();
        for comp in &expanded.components {
            let bytes = encode(comp).expect("expanded components are concrete");
            let back = decode(&bytes).unwrap();
            assert_eq!(&back, comp);
            // Agreement with the text path.
            let text = filament_core::pretty::print_component(comp);
            let parsed = parse_program(&text).unwrap().components.remove(0);
            assert_eq!(back, parsed);
        }
    }

    #[test]
    fn non_concrete_components_refuse_to_encode() {
        let p = parse_program(
            "comp A[W]<G: 1>(@[G, G+1] x: W) -> () {
               for i in 0..W { }
             }",
        )
        .unwrap();
        assert!(encode(&p.components[0]).is_none(), "parametric sig + loop");
    }

    #[test]
    fn truncation_and_corruption_never_panic() {
        let p = parse_program(
            "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
               d := new Delay[8]<G>(x);
               o = d.out;
             }",
        )
        .unwrap();
        let expanded = mono::expand(&p).unwrap();
        let bytes = encode(&expanded.components[0]).unwrap();
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix {n} decoded");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            let _ = decode(&bad); // must not panic; mis-decodes are caught
                                  // by the artifact checksum upstream
        }
    }
}
