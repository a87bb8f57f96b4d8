//! Telemetry-instrumented wrappers around the dispatch kernels.
//!
//! Each wrapper times the kernel in a span (whose name doubles as the
//! per-step stage key: `encode` / `decode`) and counts the elements it
//! touched. With a disabled [`Telemetry`] handle the wrappers reduce
//! to the plain kernels plus one branch.

use tutel_gate::{RaggedRouting, Routing};
use tutel_obs::Telemetry;
use tutel_tensor::{Tensor, TensorError};

use crate::ragged::{ragged_decode, ragged_encode};

/// [`ragged_encode`] inside an `encode` span; counts the dispatched
/// elements (`R·M`) into `kernels.encode.elements` and invocations
/// into `kernels.encode.calls`.
///
/// # Errors
///
/// Returns whatever [`ragged_encode`] returns.
pub fn ragged_encode_observed(
    x: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
    tel: &Telemetry,
) -> Result<Tensor, TensorError> {
    if !tel.is_enabled() {
        return ragged_encode(x, routing, ragged);
    }
    let span = tel
        .span("encode")
        .tag("tokens", routing.num_tokens())
        .tag("experts", routing.experts)
        .tag("packed_rows", ragged.total());
    let out = ragged_encode(x, routing, ragged)?;
    tel.add_counter("kernels.encode.elements", out.len() as u64);
    tel.add_counter("kernels.encode.calls", 1);
    drop(span);
    Ok(out)
}

/// [`ragged_decode`] inside a `decode` span; counts the combined
/// output elements (`T·M`) into `kernels.decode.elements` and
/// invocations into `kernels.decode.calls`.
///
/// # Errors
///
/// Returns whatever [`ragged_decode`] returns.
pub fn ragged_decode_observed(
    y: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
    tokens: usize,
    tel: &Telemetry,
) -> Result<Tensor, TensorError> {
    if !tel.is_enabled() {
        return ragged_decode(y, routing, ragged, tokens);
    }
    let span = tel
        .span("decode")
        .tag("tokens", tokens)
        .tag("experts", routing.experts)
        .tag("packed_rows", ragged.total());
    let out = ragged_decode(y, routing, ragged, tokens)?;
    tel.add_counter("kernels.decode.elements", out.len() as u64);
    tel.add_counter("kernels.decode.calls", 1);
    drop(span);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_gate::{route, RouteConfig};

    #[test]
    fn observed_kernels_match_plain_and_count_elements() {
        let probs = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.5, 0.5], &[3, 2])
            .unwrap()
            .softmax_last();
        let routing = route(&probs, &RouteConfig::top1().with_capacity_factor(4.0)).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();

        let bins = RaggedRouting::uniform_capacity(&routing);

        let tel = Telemetry::enabled();
        let dispatched = ragged_encode_observed(&x, &routing, &bins, &tel).unwrap();
        assert_eq!(dispatched, ragged_encode(&x, &routing, &bins).unwrap());
        let combined = ragged_decode_observed(&dispatched, &routing, &bins, 3, &tel).unwrap();
        assert_eq!(
            combined,
            ragged_decode(&dispatched, &routing, &bins, 3).unwrap()
        );

        assert_eq!(
            tel.counter_value("kernels.encode.elements"),
            Some(dispatched.len() as u64)
        );
        assert_eq!(
            tel.counter_value("kernels.decode.elements"),
            Some(combined.len() as u64)
        );
        assert_eq!(tel.counter_value("kernels.encode.calls"), Some(1));
        // Both spans made it into the ring.
        let spans: Vec<String> = tel
            .events()
            .into_iter()
            .filter_map(|e| match e {
                tutel_obs::Event::Span(s) => Some(s.name),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec!["encode".to_string(), "decode".to_string()]);
    }
}
