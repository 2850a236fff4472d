package llm

import "slices"

// PromptStore is the database of system prompts and few-shot examples
// retrieved in step (2) of Figure 1. The defaults reproduce the paper's
// augmentation: a task description restricting output to a single stanza in
// Cisco IOS syntax, plus few-shot examples of similar prompts and their
// translations.
type PromptStore struct {
	prompts map[Task]PromptEntry
}

// PromptEntry is one task's retrieval result.
type PromptEntry struct {
	System   string
	FewShots []Message // alternating user/assistant example turns
}

// BuiltinPrompts returns the built-in prompt database. It is built once per
// process and nothing modifies it, so every session shares the one store.
func BuiltinPrompts() *PromptStore { return builtinPrompts }

var builtinPrompts = newBuiltinPrompts()

func newBuiltinPrompts() *PromptStore {
	return &PromptStore{prompts: map[Task]PromptEntry{
		TaskClassify: {
			System: `You are a network configuration assistant. Classify the user's request as exactly one of: "route-map" (BGP routing policy: routes, prefixes, communities, AS paths, local preference, MED) or "acl" (packet filtering: traffic, protocols, ports, hosts). Reply with only the single word route-map or acl.`,
			FewShots: []Message{
				{Role: RoleUser, Content: "Write a route-map stanza that denies routes originating from ASN 65001."},
				{Role: RoleAssistant, Content: "route-map"},
				{Role: RoleUser, Content: "Write an ACL entry that blocks udp traffic to port 53."},
				{Role: RoleAssistant, Content: "acl"},
			},
		},
		TaskSynthRouteMap: {
			System: `You are a network configuration synthesizer. Generate exactly one route-map stanza in Cisco IOS syntax implementing the user's intent, together with any prefix-lists, community-lists or as-path access-lists it references. Do not reference data structures you do not define. Output only configuration text, no commentary.`,
			FewShots: []Message{
				{Role: RoleUser, Content: "Write a route-map stanza that denies routes originating from ASN 65001."},
				{Role: RoleAssistant, Content: "ip as-path access-list AS_LIST permit _65001$\nroute-map NEW_STANZA deny 10\n match as-path AS_LIST\n"},
				{Role: RoleUser, Content: "Write a route-map stanza that permits routes with the prefix 10.0.0.0/8 with mask length less than or equal to 24, setting the local-preference to 200."},
				{Role: RoleAssistant, Content: "ip prefix-list PREFIX_10 seq 10 permit 10.0.0.0/8 le 24\nroute-map SET_LOCAL_PREF permit 10\n match ip address prefix-list PREFIX_10\n set local-preference 200\n"},
			},
		},
		TaskSynthACL: {
			System: `You are a network configuration synthesizer. Generate exactly one extended access-list entry in Cisco IOS syntax implementing the user's intent, inside an "ip access-list extended" block. Output only configuration text, no commentary.`,
			FewShots: []Message{
				{Role: RoleUser, Content: "Write an ACL entry that permits tcp traffic from 10.0.0.0/24 to any host on port 80."},
				{Role: RoleAssistant, Content: "ip access-list extended NEW_ENTRY\n permit tcp 10.0.0.0 0.0.0.255 any eq 80\n"},
			},
		},
		TaskSpecRouteMap: {
			System: `You are a network configuration specifier. Translate the user's route-map intent into a JSON behavioural specification with fields: permit (bool), prefix (list of "A.B.C.D/L:lo-hi"), community (regex between slashes or literal), asPath (regex between slashes), localPreference, metric, tag, and set {metric, localPreference, weight, tag, community, additive, nextHopIp}. Output only JSON.`,
			FewShots: []Message{
				{Role: RoleUser, Content: "Write a route-map stanza that permits routes containing the prefix 100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. Their MED value should be set to 55."},
				{Role: RoleAssistant, Content: "{\n  \"permit\": true,\n  \"prefix\": [\"100.0.0.0/16:16-23\"],\n  \"community\": \"300:3\",\n  \"set\": {\n    \"metric\": 55\n  }\n}"},
			},
		},
		TaskSpecACL: {
			System: `You are a network configuration specifier. Translate the user's ACL intent into a JSON behavioural specification with fields: permit, protocol, src, dst, srcPort, dstPort, established. Addresses are "any", a host IP in CIDR /32 form, or a CIDR block. Output only JSON.`,
			FewShots: []Message{
				{Role: RoleUser, Content: "Write an ACL entry that permits tcp traffic from 10.0.0.0/24 to any host on port 80."},
				{Role: RoleAssistant, Content: "{\n  \"permit\": true,\n  \"protocol\": \"tcp\",\n  \"src\": \"10.0.0.0/24\",\n  \"dst\": \"any\",\n  \"dstPort\": \"eq 80\"\n}"},
			},
		},
	}}
}

// Get returns the prompt entry for a task. Its FewShots is a copy, so the
// caller cannot change the store.
func (s *PromptStore) Get(task Task) PromptEntry {
	e := s.prompts[task]
	e.FewShots = slices.Clone(e.FewShots)
	return e
}

// BuildRequest assembles a full request: system prompt, few-shot examples,
// then the conversation turns.
func (s *PromptStore) BuildRequest(task Task, turns ...Message) Request {
	e := s.prompts[task]
	msgs := make([]Message, 0, len(e.FewShots)+len(turns))
	msgs = append(msgs, e.FewShots...)
	msgs = append(msgs, turns...)
	return Request{Task: task, System: e.System, Messages: msgs}
}
