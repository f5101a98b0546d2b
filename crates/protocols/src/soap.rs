//! SOAP 1.1 over HTTP POST (Fig. 4b).
//!
//! The envelope is described by an XML-dialect MDL; the HTTP carriage by
//! the text-dialect HTTP MDL; [`soap_codec`] layers the two. Replies
//! follow the WSDL convention of naming the response element
//! `<op>Response`, which is also how the codec's variants are
//! discriminated.

use crate::http::http_codec;
use crate::layered::{http_request_defaults, http_response_defaults, LayerRoute, LayeredCodec};
use starlink_automata::{Automaton, NetworkSemantics};
use starlink_core::{ActionRule, ParamRule, ProtocolBinding, ReplyAction};
use starlink_mdl::{MdlCodec, MdlError};
use starlink_message::{AbstractMessage, Value};
use std::sync::Arc;

/// The SOAP 1.1 envelope MDL (xml dialect). The reply variant is listed
/// first: its `Response`-suffix guard makes variant selection
/// deterministic.
pub const SOAP_MDL: &str = "\
# SOAP 1.1 envelopes (xml dialect)
<Dialect:xml>
<Message:SOAPReply>
<Root:soap:Envelope>
<RootAttr:xmlns:soap=http://schemas.xmlsoap.org/soap/envelope/>
<Name:MethodName=Body>
<Rule:MethodName*=Response>
<List:Params=Body/{MethodName}/*>
<End:Message>
<Message:SOAPRequest>
<Root:soap:Envelope>
<RootAttr:xmlns:soap=http://schemas.xmlsoap.org/soap/envelope/>
<Name:MethodName=Body>
<List:Params=Body/{MethodName}/*>
<End:Message>";

/// Compiles the plain envelope codec (no HTTP layer).
///
/// # Errors
///
/// Never fails for the embedded spec.
pub fn soap_envelope_codec() -> Result<MdlCodec, MdlError> {
    MdlCodec::from_text(SOAP_MDL)
}

/// Compiles the full SOAP-over-HTTP codec: envelopes travel in POST
/// bodies to `endpoint_path` on `host`.
///
/// # Errors
///
/// Never fails for the embedded specs.
pub fn soap_codec(host: &str, endpoint_path: &str) -> Result<LayeredCodec, MdlError> {
    let mut request_defaults = http_request_defaults(host);
    request_defaults.push((
        "Method".parse().expect("static path"),
        Value::Str("POST".into()),
    ));
    request_defaults.push((
        "RequestURI".parse().expect("static path"),
        Value::Str(endpoint_path.to_owned()),
    ));
    request_defaults.push((
        "Headers.SOAPAction".parse().expect("static path"),
        Value::Str("\"\"".into()),
    ));
    Ok(LayeredCodec::new(
        Arc::new(http_codec()?),
        Arc::new(soap_envelope_codec()?),
        "Body",
        vec![
            LayerRoute {
                inner: "SOAPRequest".into(),
                outer_message: "HTTPRequest".into(),
                outer_defaults: request_defaults,
            },
            LayerRoute {
                inner: "SOAPReply".into(),
                outer_message: "HTTPResponse".into(),
                outer_defaults: http_response_defaults(),
            },
        ],
    ))
}

/// The standard SOAP binding (Fig. 7 right): action label is the Body's
/// operation element name, parameters are its positional children, the
/// reply element carries the `Response` suffix.
pub fn soap_binding() -> ProtocolBinding {
    ProtocolBinding::new("SOAP", "SOAP.mdl", "SOAPRequest", "SOAPReply")
        .with_request_action(ActionRule::Field(
            "MethodName".parse().expect("static path"),
        ))
        .with_reply_action(ReplyAction::FieldWithSuffix {
            path: "MethodName".parse().expect("static path"),
            suffix: "Response".into(),
        })
        .with_params(
            ParamRule::PositionalArray("Params".parse().expect("static path")),
            ParamRule::PositionalArray("Params".parse().expect("static path")),
        )
}

/// The SOAP client k-colored automaton of Fig. 4b.
pub fn soap_client_automaton(color: u8) -> Automaton {
    let mut a = Automaton::new("SOAPClient", color);
    a.add_state("B1");
    a.add_state("B2");
    a.set_initial("B1").expect("state B1 was just added");
    a.add_final("B1").expect("state B1 was just added");
    a.add_send("B1", "B2", AbstractMessage::new("SOAPRequest"))
        .expect("states exist");
    a.add_receive("B2", "B1", AbstractMessage::new("SOAPReply"))
        .expect("states exist");
    a.set_network(color, NetworkSemantics::tcp_sync("SOAP.mdl"));
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_mdl::MessageCodec;

    #[test]
    fn request_envelope_over_http() {
        let codec = soap_codec("flickr.com", "/services/soap/").unwrap();
        let mut msg = AbstractMessage::new("SOAPRequest");
        msg.set_field("MethodName", Value::from("Plus"));
        msg.set_field(
            "Params",
            Value::Array(vec![Value::from("3"), Value::from("4")]),
        );
        let wire = codec.compose(&msg).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("POST /services/soap/ HTTP/1.1\r\n"));
        assert!(text.contains("<soap:Envelope"));
        assert!(text.contains("<Plus>"));
        let back = codec.parse(&wire).unwrap();
        assert_eq!(back.name(), "SOAPRequest");
        assert_eq!(back.get("MethodName").unwrap().as_str(), Some("Plus"));
    }

    #[test]
    fn reply_variant_selected_by_response_suffix() {
        let codec = soap_codec("h", "/s").unwrap();
        let mut msg = AbstractMessage::new("SOAPReply");
        msg.set_field("MethodName", Value::from("PlusResponse"));
        msg.set_field("Params", Value::Array(vec![Value::from("7")]));
        let wire = codec.compose(&msg).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("<PlusResponse>"));
        let back = codec.parse(&wire).unwrap();
        assert_eq!(back.name(), "SOAPReply");
    }

    #[test]
    fn binding_round_trip_via_response_suffix() {
        let binding = soap_binding();
        let mut app_reply = AbstractMessage::new("Plus.reply");
        app_reply.set_field("z", Value::Int(7));
        let proto = binding.bind_reply(&app_reply, None).unwrap();
        assert_eq!(
            proto.get("MethodName").unwrap().as_str(),
            Some("PlusResponse")
        );
        let mut template = AbstractMessage::new("Plus.reply");
        template.set_field("z", Value::Null);
        let back = binding
            .unbind_reply(&proto, "Plus", Some(&template))
            .unwrap();
        assert_eq!(back.name(), "Plus.reply");
        assert_eq!(back.get("z").unwrap().as_int(), Some(7));
    }

    #[test]
    fn deeply_nested_envelope_is_rejected_on_a_small_stack() {
        // One ~700 KB frame nesting 100 000 elements in the body: the
        // codec must answer with an error, not overflow a 2 MiB stack.
        let levels = 100_000;
        let frame = format!(
            "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\">\
             <soap:Body><Plus>{}{}</Plus></soap:Body></soap:Envelope>",
            "<a>".repeat(levels),
            "</a>".repeat(levels)
        );
        let codec = soap_envelope_codec().unwrap();
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || codec.parse(frame.as_bytes()).map(|m| m.name().to_owned()))
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed.is_err(), "parsed as {parsed:?}");
    }

    #[test]
    fn client_automaton_matches_fig4b() {
        let a = soap_client_automaton(2);
        a.validate().unwrap();
        let n = a.network(2).unwrap();
        assert_eq!(n.mdl, "SOAP.mdl");
        let labels: Vec<String> = a.transitions().iter().map(|t| t.action.label()).collect();
        assert_eq!(labels, vec!["!SOAPRequest", "?SOAPReply"]);
    }
}
