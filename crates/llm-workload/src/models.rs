//! Model configurations (paper Table I and Table II).

/// A transformer model configuration.
///
/// The paper evaluates scaled-down variants: matrix dimensions are halved
/// relative to the full-size models, matching a half-SM GPU (validated in
/// its Table II). The Table I presets here are those halved configs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Short display name.
    pub name: &'static str,
    /// Hidden dimension (d_model).
    pub hidden: u64,
    /// FFN intermediate dimension.
    pub ffn_hidden: u64,
    /// Attention heads.
    pub heads: u64,
    /// Sequence length.
    pub seq_len: u64,
    /// Batch size (sequences).
    pub batch: u64,
    /// Transformer layers (used to scale per-layer results end-to-end).
    pub layers: u64,
    /// Bytes per element (BF16/FP16 = 2).
    pub elem_bytes: u64,
}

impl ModelConfig {
    /// Mega-GPT-4B (Table I).
    pub fn mega_gpt_4b() -> ModelConfig {
        ModelConfig {
            name: "Mega-GPT-4B",
            hidden: 2048,
            ffn_hidden: 8192,
            heads: 24,
            seq_len: 1024,
            batch: 16,
            layers: 24,
            elem_bytes: 2,
        }
    }

    /// Mega-GPT-8B (Table I).
    pub fn mega_gpt_8b() -> ModelConfig {
        ModelConfig {
            name: "Mega-GPT-8B",
            hidden: 3072,
            ffn_hidden: 12288,
            heads: 32,
            seq_len: 1024,
            batch: 12,
            layers: 32,
            elem_bytes: 2,
        }
    }

    /// LLaMA-7B (Table I; the half-scale config of the Table II "Full"
    /// setup).
    pub fn llama_7b() -> ModelConfig {
        ModelConfig {
            name: "LLaMA-7B",
            hidden: 4096,
            ffn_hidden: 11264,
            heads: 32,
            seq_len: 3072,
            batch: 3,
            layers: 32,
            elem_bytes: 2,
        }
    }

    /// The Table II "Full" validation setup (matrix dims doubled, run on a
    /// full 132-SM GPU).
    pub fn llama_full_scale() -> ModelConfig {
        ModelConfig {
            name: "LLaMA-Full",
            hidden: 8192,
            ffn_hidden: 22528,
            heads: 64,
            ..ModelConfig::llama_7b()
        }
    }

    /// All three Table I workloads.
    pub fn table1() -> Vec<ModelConfig> {
        vec![
            ModelConfig::mega_gpt_4b(),
            ModelConfig::mega_gpt_8b(),
            ModelConfig::llama_7b(),
        ]
    }

    /// Tokens per microbatch (`batch * seq_len`).
    pub fn tokens(&self) -> u64 {
        self.batch * self.seq_len
    }

    /// A copy with the hidden/FFN dimensions scaled by `num/den`
    /// (used by the Fig. 17 scalability sweep, which grows the model with
    /// the GPU count).
    pub fn scale_hidden(&self, num: u64, den: u64) -> ModelConfig {
        ModelConfig {
            hidden: self.hidden * num / den,
            ffn_hidden: self.ffn_hidden * num / den,
            heads: (self.heads * num / den).max(1),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = ModelConfig::table1();
        assert_eq!(t.len(), 3);
        let llama = &t[2];
        assert_eq!(llama.hidden, 4096);
        assert_eq!(llama.ffn_hidden, 11264);
        assert_eq!(llama.heads, 32);
        assert_eq!(llama.seq_len, 3072);
        assert_eq!(llama.batch, 3);
    }

    #[test]
    fn derived_sizes() {
        let m = ModelConfig::llama_7b();
        assert_eq!(m.tokens(), 9216);
    }

    #[test]
    fn full_scale_doubles_dims() {
        let half = ModelConfig::llama_7b();
        let full = ModelConfig::llama_full_scale();
        assert_eq!(full.hidden, 2 * half.hidden);
        assert_eq!(full.ffn_hidden, 2 * half.ffn_hidden);
        assert_eq!(full.heads, 2 * half.heads);
        assert_eq!(full.seq_len, half.seq_len);
    }

    #[test]
    fn scale_hidden_scales_proportionally() {
        let m = ModelConfig::llama_7b().scale_hidden(2, 1);
        assert_eq!(m.hidden, 8192);
        assert_eq!(m.ffn_hidden, 22528);
        assert_eq!(m.heads, 64);
    }
}
