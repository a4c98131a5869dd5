//! Micro-batch execution: turns a drained slice of queued requests into
//! batched forward passes — one [`ppn_core::ppn::PolicyNet::act_batch`]
//! call per model — and routes each outcome back through its reply channel.
//!
//! This module only *computes*; the thread that drives it lives in
//! [`crate::server`] (the `no-thread` lint allowlists only the listener
//! module). The forward pass inside `act_batch` runs on that batcher
//! thread itself (the tensor kernels run on their calling thread), and
//! each output row is bit-identical to a single-request forward pass by
//! the kernels' row-independence guarantee.

use crate::queue::QueuedRequest;
use crate::registry::ModelRegistry;
use crate::{validate_request, DecideResponse, ServeError};
use std::collections::BTreeMap;

/// Executes one drained batch.
///
/// Requests are grouped by model name (`BTreeMap` → deterministic model
/// order), validated against the model's input contract, and decided with a
/// single batched forward pass per group. Invalid or unroutable requests
/// receive their error without poisoning the rest of the batch.
pub fn process_batch(registry: &ModelRegistry, mut jobs: Vec<QueuedRequest>) {
    // Jobs whose reply slot lost its receiver (client hung up, request
    // already answered 504) are dropped *before* the forward pass — no
    // compute is spent on an answer nobody will read.
    jobs.retain(|job| {
        if job.reply.is_disconnected() {
            crate::metrics::cancelled().inc();
            false
        } else {
            true
        }
    });
    if jobs.is_empty() {
        return;
    }
    // Stage boundary shared by every job in this drain: time spent before
    // this point is queue wait, time until the batch tensors are built is
    // assembly. Sampled jobs report these as child spans of their request.
    let drained_at = ppn_obs::clock::now();
    let mut groups: BTreeMap<String, Vec<QueuedRequest>> = BTreeMap::new();
    for job in jobs {
        groups.entry(job.request.model.clone()).or_default().push(job);
    }
    let batch_hist = crate::metrics::batch_size();
    let errors = crate::metrics::errors();
    for (model, group) in groups {
        // One version-stamped pin per group, held across the whole forward
        // pass: a concurrent publish/rollback swaps the live pointer for
        // *later* batches, but every row of this batch is decided by one
        // complete network (epoch-style snapshot isolation).
        let Some(pinned) = registry.resolve(&model) else {
            for job in group {
                errors.inc();
                job.reply.send(Err(ServeError::UnknownModel(model.clone())));
            }
            continue;
        };
        let net = pinned.net();
        let model_version = pinned.version();
        let mut valid = Vec::new();
        for job in group {
            match validate_request(net, &job.request) {
                Ok(()) => valid.push(job),
                Err(e) => {
                    errors.inc();
                    job.reply.send(Err(e));
                }
            }
        }
        if valid.is_empty() {
            continue;
        }
        let windows: Vec<&[f64]> = valid.iter().map(|j| j.request.window.as_slice()).collect();
        let prevs: Vec<&[f64]> = valid.iter().map(|j| j.request.prev_action.as_slice()).collect();
        let batch_size = valid.len();
        batch_hist.observe(batch_size as f64);
        // One interval times the forward pass for both the aggregate
        // `serve.forward` span and each sampled job's trace.
        let assembled_at = ppn_obs::clock::now();
        let forward = ppn_obs::span::enter_at("serve.forward", assembled_at);
        let outputs = net.act_batch(&windows, &prevs);
        let forwarded_at = forward.close();
        for job in &valid {
            job.trace.emit_span("serve.queue_wait", job.enqueued_at, drained_at);
            job.trace.emit_span("serve.batch_assemble", drained_at, assembled_at);
            job.trace.emit_span("serve.forward", assembled_at, forwarded_at);
        }
        for (job, weights) in valid.into_iter().zip(outputs) {
            job.reply.send(Ok(DecideResponse {
                model: model.clone(),
                model_version,
                weights,
                batch_size,
            }));
        }
    }
}
